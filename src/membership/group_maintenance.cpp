#include "membership/group_maintenance.hpp"

#include <unordered_set>
#include <utility>

namespace omega::membership {

namespace {
const member_table empty_table{};

/// A candidate whose own claim is younger than `kClaimLifetime`.
bool live_candidate(const member_info& m, time_point now) {
  return m.candidate && m.last_claim > now - group_maintenance::kClaimLifetime;
}
}  // namespace

group_maintenance::group_maintenance(clock_source& clock, timer_service& timers,
                                     node_id self, incarnation inc, options opts)
    : clock_(clock), sweep_timer_(timers), self_(self), inc_(inc), opts_(opts) {}

group_maintenance::~group_maintenance() { stop(); }

void group_maintenance::local_join(group_id group, process_id pid, bool candidate) {
  const time_point now = clock_.now();
  auto& state = groups_[group];
  state.local = member_info{pid, self_, inc_, candidate, now};
  apply_upsert(group, pid, self_, inc_, candidate, now);
  if (scoped_mode()) {
    scoped_announce(group);
  } else if (broadcast_) {
    broadcast_(build_hello(/*reply_requested=*/true));
  }
}

void group_maintenance::scoped_announce(group_id group) {
  // Scoped bootstrap: the announcement still goes cluster-wide (discovery
  // must reach peers we do not know yet), but soliciting a snapshot from
  // every roster node would cost O(n) ACKs of O(n) entries on every join —
  // and candidacy changes re-announce, so hierarchies pay it on each
  // promotion. A bounded solicitation set plus the periodic probes
  // converges the same view for O(1) ACKs.
  if (broadcast_) {
    proto::hello_msg hello = build_hello(/*reply_requested=*/false);
    if (!hello.entries.empty()) broadcast_(hello);
  }
  const std::vector<node_id> targets = snapshot_targets(group);
  if (!targets.empty()) {
    proto::hello_msg ask = build_hello(/*reply_requested=*/true);
    if (!ask.entries.empty()) multicast_(targets, ask);
  }
}

std::vector<node_id> group_maintenance::snapshot_targets(group_id preferred) {
  // Prefer the live candidates of the group being (re)announced — they
  // announce to its whole roster, so only they are sure to hold all of it —
  // then its other peers, then any tracked peer (warm snapshots for the
  // other groups), then roster rotation for the very first join.
  std::vector<node_id> targets;
  std::unordered_set<node_id> seen;
  const time_point now = clock_.now();
  const auto take_from = [&](const member_table& table, bool live_only) {
    for (const member_info& m : table.members_view()) {
      if (live_only && !live_candidate(m, now)) continue;
      if (m.node == self_ || !seen.insert(m.node).second) continue;
      targets.push_back(m.node);
      if (targets.size() >= kSnapshotFanout) return true;
    }
    return false;
  };
  if (auto it = groups_.find(preferred); it != groups_.end()) {
    if (take_from(it->second.table, /*live_only=*/true)) return targets;
    if (take_from(it->second.table, /*live_only=*/false)) return targets;
  }
  for (const auto& [group, state] : groups_) {
    if (group == preferred) continue;
    if (take_from(state.table, /*live_only=*/false)) return targets;
  }
  for (std::size_t step = 0;
       step < cluster_roster_.size() && targets.size() < kSnapshotFanout;
       ++step) {
    const node_id candidate =
        cluster_roster_[probe_cursor_++ % cluster_roster_.size()];
    if (candidate == self_ || seen.count(candidate) > 0) continue;
    seen.insert(candidate);
    targets.push_back(candidate);
  }
  if (!cluster_roster_.empty()) probe_cursor_ %= cluster_roster_.size();
  return targets;
}

void group_maintenance::update_local_candidacy(group_id group, bool candidate) {
  auto it = groups_.find(group);
  if (it == groups_.end() || !it->second.local) return;
  if (it->second.local->candidate == candidate) return;
  const time_point now = clock_.now();
  it->second.local->candidate = candidate;
  apply_upsert(group, it->second.local->pid, self_, inc_, candidate, now);
  if (scoped_mode() && candidate) {
    // Promotion: every group member must (re)learn us as a candidate — the
    // listeners' scoped refreshes gate on the flag — and we must re-learn
    // the full roster in case listener entries aged out of our table while
    // we listened. Same bootstrap as a scoped join.
    scoped_announce(group);
    return;
  }
  // Demotion (or `all` fanout): the planner carries the new flag — scoped
  // to whoever needs it, or cluster-wide respectively.
  emit_hello(/*sweep=*/false);
}

void group_maintenance::local_leave(group_id group, process_id pid) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  // Capture the destination set before the removal empties it: in roster
  // mode the LEAVE goes exactly to the nodes that track this group, so a
  // node leaving one group stops gossiping to disjoint-group peers.
  std::vector<node_id> scoped_dsts;
  if (scoped_mode()) scoped_dsts = group_roster(group);
  if (auto removed = it->second.table.remove(pid, inc_)) {
    note_membership(obs::event_kind::member_leave, group, pid, self_);
    if (events_.on_member_removed) events_.on_member_removed(group, *removed);
  }
  const proto::leave_msg leave{self_, inc_, group, pid};
  if (scoped_mode()) {
    if (!scoped_dsts.empty()) multicast_(scoped_dsts, leave);
  } else if (broadcast_) {
    broadcast_(leave);
  }
  if (it->second.local && it->second.local->pid == pid) {
    // The local process was the node's member in this group: the node no
    // longer participates at all, so the whole group view is dropped.
    groups_.erase(it);
  }
}

void group_maintenance::note_membership(obs::event_kind kind, group_id group,
                                        process_id pid, node_id node) {
  if (!sink_) return;
  obs::trace_event ev;
  ev.kind = kind;
  ev.at = clock_.now();
  ev.group = group;
  ev.subject = pid;
  ev.peer = node;
  sink_->record(ev);
}

void group_maintenance::apply_upsert(group_id group, process_id pid, node_id node,
                                     incarnation inc, bool candidate,
                                     time_point now, evidence source) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;  // not a group we participate in
  member_table& table = it->second.table;
  member_info prior{};
  switch (table.upsert(pid, node, inc, candidate, now, source, &prior)) {
    case upsert_result::joined:
      note_membership(obs::event_kind::member_join, group, pid, node);
      if (events_.on_member_joined) events_.on_member_joined(group, *table.find(pid));
      break;
    case upsert_result::reincarnated:
      note_membership(obs::event_kind::member_join, group, pid, node);
      if (events_.on_member_removed) events_.on_member_removed(group, prior);
      if (events_.on_member_joined) events_.on_member_joined(group, *table.find(pid));
      break;
    case upsert_result::updated:
    case upsert_result::unchanged:
    case upsert_result::stale_ignored:
      break;
  }
}

bool group_maintenance::local_listener(group_id group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.local && !it->second.local->candidate;
}

void group_maintenance::on_hello(const proto::hello_msg& msg, time_point now) {
  for (const auto& entry : msg.entries) {
    // A scoped listener keeps only candidates and itself (see hello_fanout).
    if (scoped_mode() && !entry.candidate && local_listener(entry.group)) continue;
    apply_upsert(entry.group, entry.pid, msg.from, msg.inc, entry.candidate, now);
  }
  if (msg.reply_requested && unicast_) {
    if (scoped_mode()) {
      proto::hello_ack_msg snapshot = build_snapshot(&msg);
      if (!snapshot.entries.empty()) unicast_(msg.from, snapshot);
    } else {
      // Seed behaviour (byte-identical under `all` fanout): the full
      // known world, sent unconditionally.
      unicast_(msg.from, build_snapshot(nullptr));
    }
  }
}

void group_maintenance::on_hello_ack(const proto::hello_ack_msg& msg, time_point now) {
  for (const auto& entry : msg.entries) {
    // This node is the authority on its own members: a responder's copy of
    // them may hold a flag from before a demotion, and it would overwrite
    // the local entry that this node's own snapshots report.
    if (entry.node == self_) continue;
    apply_upsert(entry.group, entry.pid, entry.node, entry.inc, entry.candidate, now,
                 evidence::snapshot);
  }
}

void group_maintenance::on_leave(const proto::leave_msg& msg) {
  auto it = groups_.find(msg.group);
  if (it == groups_.end()) return;
  if (auto removed = it->second.table.remove(msg.pid, msg.inc)) {
    note_membership(obs::event_kind::member_leave, msg.group, msg.pid, msg.from);
    if (events_.on_member_removed) events_.on_member_removed(msg.group, *removed);
  }
}

void group_maintenance::on_alive(const proto::alive_msg& msg, time_point now) {
  for (const auto& payload : msg.groups) {
    apply_upsert(payload.group, payload.pid, msg.from, msg.inc, payload.candidate, now);
  }
}

void group_maintenance::note_heartbeat(group_id group) {
  if (auto it = groups_.find(group); it != groups_.end()) it->second.heartbeated = true;
}

void group_maintenance::start() {
  if (running_) return;
  running_ = true;
  sweep_timer_.arm_after(kHelloInterval, [this] { sweep(); });
}

void group_maintenance::stop() {
  running_ = false;
  sweep_timer_.cancel();
}

void group_maintenance::sweep() {
  // Periodic anti-entropy is a spontaneous causal root: the HELLO goes out
  // unstamped and evictions start their own chains.
  obs::sink::activation causal_scope(sink_);
  emit_hello(/*sweep=*/true);
  for (auto& [group, state] : groups_) state.heartbeated = false;
  const time_point cutoff = clock_.now() - kEvictionAfter;
  // Iterate over a snapshot of the group ids: an eviction event may re-enter
  // local_join / local_leave (the hierarchy coordinator promotes and demotes
  // from leader callbacks), and a map insert could rehash under a live
  // iterator.
  std::vector<group_id> ids;
  ids.reserve(groups_.size());
  for (const auto& [group, state] : groups_) ids.push_back(group);
  for (const group_id g : ids) {
    auto it = groups_.find(g);
    if (it == groups_.end()) continue;  // left during an earlier event
    auto evicted =
        it->second.table.evict_stale(cutoff, [&](const member_info& m) {
          if (m.node == self_) return true;  // never evict local members
          return vouch_ ? vouch_(g, m) : false;
        });
    for (const member_info& m : evicted) {
      note_membership(obs::event_kind::member_evicted, g, m.pid, m.node);
      if (events_.on_member_removed) events_.on_member_removed(g, m);
    }
  }
  if (running_) {
    sweep_timer_.arm_after(kHelloInterval, [this] { sweep(); });
  }
}

std::vector<node_id> group_maintenance::destinations(const group_state& state) const {
  std::vector<node_id> dsts;
  if (!state.local) return dsts;
  if (!scoped_mode()) {
    for (const node_id node : cluster_roster_) {
      if (node != self_) dsts.push_back(node);
    }
    return dsts;
  }
  const bool local_is_candidate = state.local->candidate;
  const time_point now = clock_.now();
  std::unordered_set<node_id> seen;
  for (const member_info& m : state.table.members_view()) {
    if (m.node == self_) continue;
    // Candidates announce to the whole group roster; listeners only to the
    // live candidates' hosts (the nodes whose tables must keep vouching for
    // them). A stale flag, or one only a snapshot reported, reaches no one.
    if ((local_is_candidate || live_candidate(m, now)) &&
        seen.insert(m.node).second) {
      dsts.push_back(m.node);
    }
  }
  return dsts;
}

std::unordered_set<node_id> group_maintenance::reached(const group_state& state) const {
  std::unordered_set<node_id> nodes;
  if (!state.heartbeated) return nodes;
  const time_point heard_after = clock_.now() - kSilentAfter;
  for (const member_info& m : state.table.members_view()) {
    if (m.node != self_ && m.last_refresh > heard_after) nodes.insert(m.node);
  }
  return nodes;
}

void group_maintenance::emit_hello(bool sweep) {
  const bool scoped = scoped_mode();
  std::vector<proto::hello_msg::entry> entries;  // one per planned group
  hello_plan_.clear();
  // Every scoped destination counts as covered for the probes below, also
  // one that gets no entry because the group's ALIVEs already reached it.
  std::unordered_set<node_id> covered;
  for (const auto& [group, state] : groups_) {
    if (!state.local) continue;
    const auto entry = static_cast<std::uint32_t>(entries.size());
    entries.push_back({group, state.local->pid, state.local->candidate});
    // A sweep leaves out the nodes this group's ALIVEs reached.
    const std::unordered_set<node_id> skip =
        sweep ? reached(state) : std::unordered_set<node_id>{};
    for (const node_id dst : destinations(state)) {
      if (scoped) covered.insert(dst);
      if (skip.count(dst) == 0) hello_plan_.give(dst, entry);
    }
  }
  // Destinations given the same entries share one multicast, encoded once.
  proto::hello_msg msg;
  msg.from = self_;
  msg.inc = inc_;
  msg.reply_requested = false;
  std::vector<node_id> dsts;
  hello_plan_.for_each_set([&](std::span<const std::uint32_t> planned,
                               std::span<const node_id> to) {
    msg.entries.clear();
    for (const std::uint32_t i : planned) msg.entries.push_back(entries[i]);
    dsts.assign(to.begin(), to.end());
    multicast_(dsts, msg);
  });

  // Discovery probes (`roster` mode): rotate through roster nodes outside
  // the scoped set with a full reply-requested HELLO, healing lost-join
  // gaps over time.
  if (!scoped || cluster_roster_.empty()) return;
  std::vector<node_id> probes;
  for (std::size_t step = 0;
       step < cluster_roster_.size() && probes.size() < kAntiEntropyProbes;
       ++step) {
    const node_id candidate =
        cluster_roster_[probe_cursor_++ % cluster_roster_.size()];
    if (candidate == self_ || covered.count(candidate) > 0) continue;
    probes.push_back(candidate);
  }
  probe_cursor_ %= cluster_roster_.size();
  if (probes.empty()) return;
  proto::hello_msg probe = build_hello(/*reply_requested=*/true);
  if (probe.entries.empty()) return;
  multicast_(probes, probe);
}

void group_maintenance::set_cluster_roster(std::vector<node_id> roster) {
  cluster_roster_ = std::move(roster);
  probe_cursor_ = 0;
}

proto::hello_msg group_maintenance::build_hello(bool reply_requested) const {
  proto::hello_msg msg;
  msg.from = self_;
  msg.inc = inc_;
  msg.reply_requested = reply_requested;
  for (const auto& [group, state] : groups_) {
    if (!state.local) continue;
    msg.entries.push_back({group, state.local->pid, state.local->candidate});
  }
  return msg;
}

proto::hello_ack_msg group_maintenance::build_snapshot(
    const proto::hello_msg* request) const {
  // Requested group -> whether the requester announced itself a candidate.
  std::unordered_map<group_id, bool> requested;
  if (request != nullptr) {
    for (const auto& entry : request->entries) {
      requested.emplace(entry.group, entry.candidate);
    }
  }
  const time_point now = clock_.now();
  proto::hello_ack_msg msg;
  msg.from = self_;
  msg.inc = inc_;
  for (const auto& [group, state] : groups_) {
    // A listener only uses a group's candidates: it addresses its HELLOs
    // to them and elects among them. Send it the live ones, and this node
    // if it is one.
    bool listener = false;
    if (request != nullptr) {
      const auto it = requested.find(group);
      if (it == requested.end()) continue;
      listener = !it->second;
    }
    for (const member_info& m : state.table.members_view()) {
      if (listener && !(m.node == self_ ? m.candidate : live_candidate(m, now))) {
        continue;
      }
      msg.entries.push_back({group, m.pid, m.node, m.inc, m.candidate});
    }
  }
  return msg;
}

const member_table& group_maintenance::table(group_id group) const {
  auto it = groups_.find(group);
  return it != groups_.end() ? it->second.table : empty_table;
}

std::vector<group_id> group_maintenance::groups() const {
  std::vector<group_id> out;
  out.reserve(groups_.size());
  for (const auto& [group, state] : groups_) out.push_back(group);
  return out;
}

std::optional<member_info> group_maintenance::local_member(group_id group) const {
  auto it = groups_.find(group);
  return it != groups_.end() ? it->second.local : std::nullopt;
}

std::vector<node_id> group_maintenance::group_roster(group_id group) const {
  std::vector<node_id> roster;
  auto it = groups_.find(group);
  if (it == groups_.end()) return roster;
  std::unordered_set<node_id> seen;
  for (const member_info& m : it->second.table.members_view()) {
    if (m.node == self_ || !seen.insert(m.node).second) continue;
    roster.push_back(m.node);
  }
  return roster;
}

}  // namespace omega::membership
