// Hierarchy coordinator: automates the paper's §7 tiered election on top
// of `service::leader_election_service` (DESIGN.md §7).
//
// One coordinator runs next to each service instance. It joins the node's
// whole group chain from the topology descriptor — the tier-0 region group
// as a leadership candidate, every upper-tier group as a passive
// *listener* (a member that learns the leader but never competes) — and
// then keeps the candidate sets of the upper tiers in sync with regional
// leadership:
//
//   * promotion: when this node becomes the leader of its tier-t group, it
//     flips its tier-(t+1) candidacy on in place
//     (`leader_election_service::set_candidacy`);
//   * demotion: when another process takes over tier t, this node flips
//     its tier-(t+1) candidacy off, withdrawing from that election.
//
// Races resolve through mechanisms the lower layers already have. A
// freshly promoted candidate enters the upper tier with accusation time =
// now, so it ranks behind any established upper-tier leader — promotion
// and stale-incarnation rejoins never *demote* a healthy global leader.
// Two nodes that both believe they lead a region (a transient partition)
// are simply two candidates; the upper election orders them and the loser
// withdraws when its region view converges. Leaderless windows at tier t
// (crash detection in progress) *hold* the current tier-(t+1) candidacy
// instead of resigning it: resigning early would extend the upper tier's
// vacancy, and if this node really crashed its candidacy dies with it
// anyway. The upper tier is therefore leaderless for at most one regional
// failover plus one upper-tier failover after any single crash.
//
// Tier economics: regions default to the link-crash-tolerant omega_lc at
// interactive QoS (small groups, fast local failover); upper tiers default
// to the communication-efficient omega_l at background QoS — listeners
// never emit ALIVE payloads there, so an upper tier with hundreds of
// listeners costs O(candidates * members), not O(members^2).
//
// The coordinator holds a reference to the service and must be destroyed
// before (or together with) it; destroying both models a workstation
// crash. `shutdown()` is the graceful exit that broadcasts LEAVEs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "hierarchy/topology.hpp"
#include "service/service.hpp"

namespace omega::hierarchy {

/// Join parameters of one tier of the hierarchy.
struct tier_options {
  fd::qos_spec qos{};
  adaptive::qos_class fd_class = adaptive::qos_class::interactive;
  /// Election algorithm of the tier's groups (service default when unset).
  std::optional<election::algorithm> alg;
};

struct coordinator_options {
  /// Tier 0 (region) joins: everyone is a candidate.
  tier_options region{};
  /// Tiers >= 1 joins: listeners, candidates only by promotion.
  tier_options upper{};
  /// Request roster-scoped membership dissemination
  /// (`membership::hello_fanout::roster`) on the service at construction.
  /// Hierarchical deployments are exactly the shape where the cluster-wide
  /// HELLO anti-entropy dominates per-node cost (each node shares groups
  /// with a few peers yet gossips to all n), so the coordinator asks for
  /// scoping by default; set false to keep the service's configured fanout
  /// (the pre-scoping baseline fig12 compares against).
  bool scoped_hello = true;

  coordinator_options() {
    region.alg = election::algorithm::omega_lc;
    upper.alg = election::algorithm::omega_l;
    upper.fd_class = adaptive::qos_class::background;
  }
};

class hierarchy_coordinator {
 public:
  /// Fired on every leader change of any tier of this node's chain, after
  /// the coordinator reacted to it (tier index, new leader or nullopt).
  using tier_leader_callback =
      std::function<void(std::size_t, std::optional<process_id>)>;

  /// Registers `pid` with the service (if not already registered) and joins
  /// the node's whole group chain. The service must outlive the coordinator.
  hierarchy_coordinator(service::leader_election_service& svc, topology topo,
                        process_id pid, coordinator_options opts = {},
                        tier_leader_callback on_leader = nullptr);

  hierarchy_coordinator(const hierarchy_coordinator&) = delete;
  hierarchy_coordinator& operator=(const hierarchy_coordinator&) = delete;

  /// Gracefully leaves every joined tier group (LEAVEs are broadcast).
  /// Destruction without shutdown models a crash: the service instance is
  /// expected to be torn down with the coordinator.
  void shutdown();

  /// This node's current leader view at `tier` (nullopt while unknown).
  [[nodiscard]] std::optional<process_id> leader(std::size_t tier) const;
  /// The top-tier leader — what applications usually want.
  [[nodiscard]] std::optional<process_id> global_leader() const;

  /// Whether this node currently competes at `tier` (tier 0: always).
  [[nodiscard]] bool candidate_at(std::size_t tier) const;

  [[nodiscard]] const topology& topo() const { return topo_; }
  [[nodiscard]] std::size_t region() const { return region_; }
  [[nodiscard]] process_id pid() const { return pid_; }

  /// Candidacy transitions performed so far (for tests and benches).
  [[nodiscard]] std::uint64_t promotions() const { return promotions_; }
  [[nodiscard]] std::uint64_t demotions() const { return demotions_; }

 private:
  void on_tier_leader(std::size_t tier, std::optional<process_id> leader);
  void set_candidacy(std::size_t tier, bool want);
  void join_tier(std::size_t tier, bool candidate);
  [[nodiscard]] service::join_options join_opts(std::size_t tier,
                                                bool candidate) const;

  service::leader_election_service& svc_;
  topology topo_;
  process_id pid_;
  coordinator_options opts_;
  tier_leader_callback on_leader_;
  std::size_t region_ = 0;
  std::vector<bool> candidate_;  // per tier
  bool shutdown_ = false;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
};

}  // namespace omega::hierarchy
