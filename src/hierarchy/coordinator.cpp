#include "hierarchy/coordinator.hpp"

#include <utility>

namespace omega::hierarchy {

hierarchy_coordinator::hierarchy_coordinator(
    service::leader_election_service& svc, topology topo, process_id pid,
    coordinator_options opts, tier_leader_callback on_leader)
    : svc_(svc),
      topo_(std::move(topo)),
      pid_(pid),
      opts_(std::move(opts)),
      on_leader_(std::move(on_leader)),
      region_(topo_.region_of(svc.self())),
      candidate_(topo_.tiers(), false) {
  candidate_[0] = true;
  svc_.register_process(pid_);  // idempotent: false just means already there
  // Scope membership dissemination to the group rosters before the first
  // join fires any HELLO: the per-tier groups are small (regions) or thin
  // (upper tiers: a few candidates, silent listeners), so cluster-wide
  // anti-entropy would be almost entirely wasted fan-out.
  if (opts_.scoped_hello) {
    svc_.set_hello_fanout(membership::hello_fanout::roster);
  }
  // Annotate the whole group chain with tier numbers before any join can
  // emit a trace event, so every recorded event of a hierarchical group
  // carries its tier.
  if (obs::sink* sink = svc_.observability()) {
    for (std::size_t tier = 0; tier < topo_.tiers(); ++tier) {
      sink->set_tier(topo_.group_at(svc_.self(), tier),
                     static_cast<std::int32_t>(tier));
    }
  }
  // Join upper tiers first (as listeners), the region group last: the very
  // first region evaluation can already elect this node (a one-node region,
  // or the first joiner), and the promotion path requires the tier-1 group
  // to be joined when that callback fires.
  for (std::size_t tier = topo_.tiers(); tier-- > 1;) {
    join_tier(tier, /*candidate=*/false);
  }
  join_tier(0, /*candidate=*/true);
}

void hierarchy_coordinator::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;  // callbacks fired by the leaves must not re-join
  for (std::size_t tier = 0; tier < topo_.tiers(); ++tier) {
    svc_.leave_group(pid_, topo_.group_at(svc_.self(), tier));
  }
}

std::optional<process_id> hierarchy_coordinator::leader(
    std::size_t tier) const {
  return svc_.leader(topo_.group_at(svc_.self(), tier));
}

std::optional<process_id> hierarchy_coordinator::global_leader() const {
  return svc_.leader(topo_.top_group());
}

bool hierarchy_coordinator::candidate_at(std::size_t tier) const {
  return tier < candidate_.size() && candidate_[tier];
}

service::join_options hierarchy_coordinator::join_opts(std::size_t tier,
                                                       bool candidate) const {
  const tier_options& t = tier == 0 ? opts_.region : opts_.upper;
  service::join_options jo;
  jo.candidate = candidate;
  jo.qos = t.qos;
  jo.fd_class = t.fd_class;
  jo.alg = t.alg;
  return jo;
}

void hierarchy_coordinator::join_tier(std::size_t tier, bool candidate) {
  svc_.join_group(pid_, topo_.group_at(svc_.self(), tier),
                  join_opts(tier, candidate),
                  [this, tier](group_id, std::optional<process_id> leader) {
                    on_tier_leader(tier, leader);
                  });
}

void hierarchy_coordinator::on_tier_leader(std::size_t tier,
                                           std::optional<process_id> leader) {
  if (shutdown_) return;
  if (tier + 1 < topo_.tiers() && leader.has_value()) {
    // A definite leader at tier t decides our tier-(t+1) candidacy. A
    // leaderless window (nullopt) holds the current candidacy instead:
    // resigning during a failover would only lengthen the upper tier's own
    // vacancy, and a crashed node's candidacy vanishes with it regardless.
    set_candidacy(tier + 1, *leader == pid_);
  }
  if (on_leader_) on_leader_(tier, leader);
}

void hierarchy_coordinator::set_candidacy(std::size_t tier, bool want) {
  if (candidate_[tier] == want) return;
  candidate_[tier] = want;  // set first: the flip can fire callbacks
  if (want) {
    ++promotions_;
  } else {
    ++demotions_;
  }
  if (obs::sink* sink = svc_.observability()) {
    obs::trace_event ev;
    ev.kind = want ? obs::event_kind::promotion : obs::event_kind::demotion;
    ev.at = svc_.clock().now();
    ev.group = topo_.group_at(svc_.self(), tier);
    ev.subject = pid_;
    sink->record(ev);
  }
  // In-place flip: the elector keeps its learned state and current leader
  // view, and a promotion still resets our accusation time to "now" — the
  // property that keeps a promoted (or re-promoted) candidate ranked
  // behind any established upper-tier leader. The historical leave +
  // re-join did the same ranking reset but wiped this node's tier view
  // (transiently breaking cluster-wide agreement on the upper leader) and
  // could reorder its LEAVE behind its JOIN on the wire, knocking the
  // node out of peers' rosters until the next anti-entropy round.
  const group_id group = topo_.group_at(svc_.self(), tier);
  if (!svc_.set_candidacy(pid_, group, want)) {
    // The group is unexpectedly not joined (shutdown race): fall back to a
    // fresh join with the wanted flag.
    join_tier(tier, want);
  }
}

}  // namespace omega::hierarchy
