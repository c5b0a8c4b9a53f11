// Three-tier failover battery (regions -> zones -> global) under
// roster-scoped dissemination: kill a zone leader, kill the global leader,
// crash-and-rejoin with a stale incarnation, partition one region (briefly,
// and past the eviction timeout), and a loop of global-leader kills.
// After every event the promotion/demotion invariants must hold and the
// cluster must converge on exactly one global leader.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "harness/experiment.hpp"
#include "hierarchy/coordinator.hpp"
#include "membership/group_maintenance.hpp"
#include "proto/wire.hpp"

namespace omega::harness {
namespace {

constexpr std::size_t kNodes = 18;

/// 18 nodes, 6 regions of 3, 3 zones of 2 regions, one global group.
scenario three_tier_sc(std::uint64_t seed = 29) {
  scenario sc;
  sc.name = "three-tier-failover";
  sc.nodes = kNodes;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.churn = churn_profile::none();
  sc.hierarchy = hierarchy_profile::three_tier(6, 3);
  sc.seed = seed;
  return sc;
}

/// Runs the sim until every live node agrees on a global leader (bounded).
std::optional<process_id> settle(experiment& exp, duration budget = sec(40)) {
  auto& sim = exp.simulator();
  if (sim.now() < time_origin + sec(5)) sim.run_until(time_origin + sec(5));
  const time_point deadline = sim.now() + budget;
  while (sim.now() < deadline) {
    if (auto agreed = exp.group().agreed_leader()) return agreed;
    sim.run_until(sim.now() + msec(100));
  }
  return exp.group().agreed_leader();
}

/// True when the metric tracker agrees AND every live coordinator's own
/// global view names the same single leader.
bool converged_on_one_global_leader(experiment& exp) {
  const auto agreed = exp.group().agreed_leader();
  if (!agreed.has_value()) return false;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    auto* coord = exp.node_coordinator(node_id{i});
    if (coord == nullptr) continue;  // node down
    if (coord->global_leader() != agreed) return false;
  }
  return true;
}

/// Waits (bounded) for cluster-wide convergence on one global leader.
bool wait_converged(experiment& exp, duration budget = sec(30)) {
  auto& sim = exp.simulator();
  const time_point deadline = sim.now() + budget;
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + msec(100));
    if (converged_on_one_global_leader(exp)) return true;
  }
  return false;
}

/// The promotion/demotion invariant: wherever a node sees a *definite*
/// leader at tier t, its tier-(t+1) candidacy equals "that leader is me".
/// (Leaderless windows deliberately hold candidacy, so they are skipped.)
void check_candidacy_invariants(experiment& exp) {
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    auto* coord = exp.node_coordinator(node_id{i});
    if (coord == nullptr) continue;
    for (std::size_t tier = 0; tier + 1 < coord->topo().tiers(); ++tier) {
      const auto leader = coord->leader(tier);
      if (!leader.has_value()) continue;
      EXPECT_EQ(coord->candidate_at(tier + 1), *leader == coord->pid())
          << "node " << i << " tier " << tier;
    }
  }
}

/// A zone leader (global candidate) other than the global leader.
hierarchy::hierarchy_coordinator* find_other_zone_leader(experiment& exp,
                                                         process_id global) {
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    auto* coord = exp.node_coordinator(node_id{i});
    if (coord == nullptr || coord->pid() == global) continue;
    if (coord->candidate_at(2)) return coord;
  }
  return nullptr;
}

TEST(ThreeTierFailover, KillZoneLeaderPromotesReplacementWithoutGlobalOutage) {
  experiment exp(three_tier_sc());
  auto& sim = exp.simulator();
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());
  ASSERT_TRUE(wait_converged(exp));

  auto* zone_leader = find_other_zone_leader(exp, *global);
  ASSERT_NE(zone_leader, nullptr) << "no second zone leader promoted";
  const node_id victim{zone_leader->pid().value()};
  const group_id zone_group = exp.topo()->group_at(victim, 1);
  exp.crash_node(victim);

  // The victim's zone must re-elect (a region leader of that zone gets
  // promoted), while the global tier never loses its leader.
  sim.run_until(sim.now() + sec(20));
  EXPECT_EQ(exp.group().agreed_leader(), global)
      << "global leader moved although only a foreign zone leader died";

  hierarchy::hierarchy_coordinator* replacement = nullptr;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const node_id n{i};
    auto* coord = exp.node_coordinator(n);
    if (coord == nullptr || exp.topo()->group_at(n, 1) != zone_group) continue;
    const auto zl = coord->leader(1);
    ASSERT_TRUE(zl.has_value()) << "zone still leaderless after 20 s";
    EXPECT_NE(zl->value(), victim.value());
    if (*zl == coord->pid()) replacement = coord;
  }
  ASSERT_NE(replacement, nullptr);
  EXPECT_TRUE(replacement->candidate_at(2))
      << "new zone leader was not promoted into the global election";
  check_candidacy_invariants(exp);
  EXPECT_TRUE(converged_on_one_global_leader(exp));
}

TEST(ThreeTierFailover, KillGlobalLeaderConvergesOnExactlyOneSuccessor) {
  experiment exp(three_tier_sc());
  auto& sim = exp.simulator();
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());
  ASSERT_TRUE(wait_converged(exp));

  // Turn on accounting so the blame split sees this outage.
  exp.group().begin(sim.now());
  exp.hier_metrics()->begin(sim.now());

  const node_id victim{global->value()};
  exp.crash_node(victim);
  const time_point deadline = sim.now() + sec(30);
  std::optional<process_id> successor;
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + msec(50));
    const auto agreed = exp.group().agreed_leader();
    if (agreed.has_value() && *agreed != *global) {
      successor = agreed;
      break;
    }
  }
  ASSERT_TRUE(successor.has_value()) << "no successor within 30 s";
  EXPECT_TRUE(wait_converged(exp));
  check_candidacy_invariants(exp);

  // The victim's own region must have healed too.
  const std::size_t crashed_region = exp.topo()->region_of(victim);
  sim.run_until(sim.now() + sec(10));
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const node_id n{i};
    auto* coord = exp.node_coordinator(n);
    if (coord == nullptr || exp.topo()->region_of(n) != crashed_region) continue;
    const auto rl = coord->leader(0);
    ASSERT_TRUE(rl.has_value());
    EXPECT_NE(rl->value(), victim.value());
  }

  // Exactly one blame bucket took the outage; with two established foreign
  // zone leaders in the global group, re-election beats the victim
  // region's promotion chain.
  const auto* hm = exp.hier_metrics();
  EXPECT_EQ(hm->outages_blamed_regional() + hm->outages_blamed_global(), 1u);
  EXPECT_EQ(hm->outages_blamed_global(), 1u);
}

TEST(ThreeTierFailover, StaleIncarnationRejoinNeverDemotesTheSuccessor) {
  experiment exp(three_tier_sc());
  auto& sim = exp.simulator();
  const auto first = settle(exp);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(wait_converged(exp));

  const node_id victim{first->value()};
  exp.crash_node(victim);
  const time_point deadline = sim.now() + sec(30);
  std::optional<process_id> successor;
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + msec(50));
    const auto agreed = exp.group().agreed_leader();
    if (agreed.has_value() && *agreed != *first) {
      successor = agreed;
      break;
    }
  }
  ASSERT_TRUE(successor.has_value());

  // The old global leader recovers with a higher incarnation. Its fresh
  // accusation times rank it behind every established leader on every
  // tier: it must come back as a pure listener and the successor must
  // keep the global group.
  exp.recover_node(victim);
  const time_point observe_until = sim.now() + sec(45);
  while (sim.now() < observe_until) {
    sim.run_until(sim.now() + msec(200));
    const auto agreed = exp.group().agreed_leader();
    if (agreed.has_value()) {
      ASSERT_EQ(*agreed, *successor)
          << "stale rejoin demoted the established successor at t="
          << to_seconds(sim.now() - time_origin);
    }
  }
  EXPECT_TRUE(converged_on_one_global_leader(exp));
  EXPECT_EQ(exp.group().agreed_leader(), successor);
  auto* recovered = exp.node_coordinator(victim);
  ASSERT_NE(recovered, nullptr);
  EXPECT_FALSE(recovered->candidate_at(1));
  EXPECT_FALSE(recovered->candidate_at(2));
  check_candidacy_invariants(exp);
}

TEST(ThreeTierFailover, PartitionedRegionRejoinsWithoutDisturbingTheRest) {
  experiment exp(three_tier_sc());
  auto& sim = exp.simulator();
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());
  ASSERT_TRUE(wait_converged(exp));

  // Partition a region from a different zone than the global leader's, so
  // the majority side keeps its whole promotion chain intact.
  const node_id leader_node{global->value()};
  const std::size_t leader_zone = exp.topo()->group_index(leader_node, 1);
  std::optional<std::size_t> cut_region;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const node_id n{i};
    if (exp.topo()->group_index(n, 1) != leader_zone) {
      cut_region = exp.topo()->region_of(n);
      break;
    }
  }
  ASSERT_TRUE(cut_region.has_value());

  const auto in_cut = [&](node_id n) {
    return exp.topo()->region_of(n) == *cut_region;
  };
  const auto set_partition = [&](bool up) {
    for (std::uint32_t a = 0; a < kNodes; ++a) {
      for (std::uint32_t b = 0; b < kNodes; ++b) {
        const node_id na{a};
        const node_id nb{b};
        if (a == b || in_cut(na) == in_cut(nb)) continue;
        exp.network().force_link_state(na, nb, up);
      }
    }
  };
  set_partition(false);
  sim.run_until(sim.now() + sec(20));

  // The majority side must still agree on the same untouched global leader.
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const node_id n{i};
    auto* coord = exp.node_coordinator(n);
    if (coord == nullptr || in_cut(n)) continue;
    EXPECT_EQ(coord->global_leader(), global)
        << "majority-side node " << i << " lost the global leader";
  }
  // The partitioned region keeps running its own election (its region
  // leader may well promote itself all the way up: split brain is the
  // expected transient under partition for an eventual leader election).
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const node_id n{i};
    auto* coord = exp.node_coordinator(n);
    if (coord == nullptr || !in_cut(n)) continue;
    const auto rl = coord->leader(0);
    ASSERT_TRUE(rl.has_value()) << "partitioned region lost its own leader";
    EXPECT_TRUE(in_cut(node_id{rl->value()}));
  }

  // Heal: the pretender's fresh promotion ranks behind the established
  // leader, so the cluster must converge back on exactly one global
  // leader (and every definite view obeys the candidacy invariant).
  set_partition(true);
  ASSERT_TRUE(wait_converged(exp, sec(45)));
  check_candidacy_invariants(exp);
}

TEST(ThreeTierFailover, RegionCutLongerThanEvictionHeals) {
  // A cut longer than kEvictionAfter evicts the cut region from every
  // table outside it and the rest from every table inside it, so the heal
  // must rebuild the tables, not just refresh them: within two claim
  // lifetimes the views must agree again and the global leader's table
  // must hold every node.
  for (const std::uint64_t seed : {29u, 30u, 31u, 32u, 33u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    experiment exp(three_tier_sc(seed));
    auto& sim = exp.simulator();
    const auto global = settle(exp);
    ASSERT_TRUE(global.has_value());
    ASSERT_TRUE(wait_converged(exp));

    const std::size_t leader_zone = exp.topo()->group_index(node_id{global->value()}, 1);
    std::optional<std::size_t> cut_region;
    for (std::uint32_t i = 0; i < kNodes && !cut_region; ++i) {
      if (exp.topo()->group_index(node_id{i}, 1) != leader_zone) {
        cut_region = exp.topo()->region_of(node_id{i});
      }
    }
    ASSERT_TRUE(cut_region.has_value());
    const auto in_cut = [&](node_id n) { return exp.topo()->region_of(n) == *cut_region; };
    const auto set_cut = [&](bool up) {
      for (std::uint32_t a = 0; a < kNodes; ++a) {
        for (std::uint32_t b = 0; b < kNodes; ++b) {
          if (a != b && in_cut(node_id{a}) != in_cut(node_id{b})) {
            exp.network().force_link_state(node_id{a}, node_id{b}, up);
          }
        }
      }
    };
    set_cut(false);
    sim.run_until(sim.now() + sec(60));
    static_assert(sec(60) > membership::group_maintenance::kEvictionAfter);
    set_cut(true);

    const time_point heal = sim.now();
    const group_id top = exp.topo()->top_group();
    const auto healed = [&] {
      if (!converged_on_one_global_leader(exp)) return false;
      const auto leader = exp.group().agreed_leader();
      const auto* svc = exp.node_service(node_id{leader->value()});
      return svc != nullptr && svc->members(top).size() == kNodes;
    };
    const duration budget = 4 * membership::group_maintenance::kHelloInterval;
    while (!healed() && sim.now() < heal + budget) sim.run_until(sim.now() + msec(100));
    EXPECT_TRUE(healed()) << "not healed " << to_seconds(budget) << " s after the heal";
    check_candidacy_invariants(exp);
  }
}

/// The `sim_hier_failover` shape at test size: 1 s detection bound on
/// every tier, roster-scoped dissemination.
scenario kill_loop_sc(std::uint64_t seed) {
  fd::qos_spec qos;
  qos.detection_time = sec(1);
  qos.mistake_recurrence = std::chrono::duration_cast<duration>(std::chrono::hours(2));
  qos.query_accuracy = 0.9999;
  scenario sc = three_tier_sc(seed);
  sc.hierarchy.scoped_hello = true;
  sc.qos = qos;
  sc.hierarchy.global_qos = qos;
  return sc;
}

/// Settles 30 s, then 20 times: calls `before_kill` with the agreed global
/// leader's node, crashes it, and recovers it 1.5 s later (4.5 s apart).
template <class BeforeKill>
void run_kill_loop(experiment& exp, BeforeKill before_kill) {
  auto& sim = exp.simulator();
  sim.run_until(time_origin + sec(30));
  exp.group().begin(sim.now());
  for (int kill = 0; kill < 20; ++kill) {
    sim.run_until(time_origin + sec(30) + msec(4500) * kill);
    const auto leader = exp.group().agreed_leader();
    ASSERT_TRUE(leader.has_value()) << "no agreed leader at kill " << kill;
    const node_id victim{leader->value()};
    before_kill(victim, kill);
    exp.crash_node(victim);
    sim.run_until(sim.now() + msec(1500));
    exp.recover_node(victim);
  }
}

TEST(ThreeTierFailover, KillLoopKeepsListenerLossAtFloor) {
  // The global leader heartbeats its region on every tick, but a listener
  // in another region only gets the ALIVEs that carry a zone or global
  // payload. Counted over the sender's whole datagram stream, the others
  // read as loss (up to 0.95 on this loss-free LAN), which drives the
  // configurator into infeasible operating points that demote live
  // leaders. Counted per (sender, group) stream, loss stays at the
  // estimator's floor through a loop of global-leader kills and recoveries.
  for (const std::uint64_t seed : {29u, 30u, 31u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    experiment exp(kill_loop_sc(seed));
    run_kill_loop(exp, [&](node_id victim, int kill) {
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        auto* svc = exp.node_service(node_id{i});
        if (svc == nullptr || node_id{i} == victim) continue;
        EXPECT_LE(svc->failure_detector().link_quality(victim).loss_probability, 0.02)
            << "node " << i << " on leader " << victim.value() << " at kill " << kill;
      }
    });
    EXPECT_EQ(exp.group().unjustified_demotions(), 0u);
  }
}

TEST(ThreeTierFailover, KillLoopRegionMatesMissNoRegionSeq) {
  // Each payload numbers its group's stream, and a sender gives its region
  // payload to its region table only. So on this loss-free LAN a region
  // mate gets every region seq a sender numbers while both incarnations
  // live: a seq that skips one is a payload that went to a partial set
  // (a recovering node's first ALIVEs, while its tables refill), and the
  // mate's estimator counts it as loss.
  for (const std::uint64_t seed : {29u, 30u, 31u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    experiment exp(kill_loop_sc(seed));
    // (sender, sender inc, receiver, receiver inc) -> last region seq sent.
    std::map<std::tuple<std::uint32_t, incarnation, std::uint32_t, incarnation>,
             std::uint64_t>
        last_seq;
    std::uint64_t missed = 0;
    exp.network().set_send_tap(
        [&](node_id from, node_id to, std::span<const std::byte> bytes) {
          const auto* receiver = exp.node_service(to);
          if (receiver == nullptr) return;  // down: its next incarnation starts afresh
          const group_id region = exp.topo()->group_at(from, 0);
          if (exp.topo()->group_at(to, 0) != region) return;
          const auto msg = proto::decode(bytes);
          const auto* alive = msg ? std::get_if<proto::alive_msg>(&*msg) : nullptr;
          if (alive == nullptr) return;
          for (const auto& payload : alive->groups) {
            if (payload.group != region) continue;
            const auto [it, first] = last_seq.try_emplace(
                {from.value(), alive->inc, to.value(), receiver->config().inc},
                payload.seq);
            if (!first && payload.seq > it->second + 1) {
              missed += payload.seq - it->second - 1;
              ADD_FAILURE() << "node " << to.value() << " missed region seqs "
                            << it->second + 1 << ".." << payload.seq - 1
                            << " of node " << from.value() << " inc " << alive->inc
                            << " at " << to_string(exp.simulator().now());
            }
            it->second = std::max(it->second, payload.seq);
          }
        });
    run_kill_loop(exp, [](node_id, int) {});
    exp.network().set_send_tap({});
    EXPECT_EQ(missed, 0u);
  }
}

TEST(ThreeTierFailover, SurvivorsSuspectTheDeadGlobalLeaderTogether) {
  // A failover ends when the last survivor drops the dead leader. Each
  // unpinned monitor trusts a heartbeat until its send time + T^U_D, so
  // the survivors, which all got the leader's last ALIVE, suspect it at
  // one instant. A larger delta on the cold monitors of recently
  // recovered nodes would put them behind the rest.
  experiment exp(kill_loop_sc(29));
  auto& sim = exp.simulator();
  const group_id global_group = exp.topo()->group_at(node_id{0}, 2);
  sim.run_until(time_origin + sec(30));
  for (int kill = 0; kill < 12; ++kill) {
    sim.run_until(time_origin + sec(30) + msec(4500) * kill);
    const auto leader = exp.group().agreed_leader();
    ASSERT_TRUE(leader.has_value()) << "no agreed leader at kill " << kill;
    const node_id victim{leader->value()};
    std::vector<node_id> watchers;  // live nodes trusting the leader now
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      auto* svc = exp.node_service(node_id{i});
      if (svc == nullptr || node_id{i} == victim) continue;
      if (svc->failure_detector().is_trusted(global_group, victim)) {
        watchers.push_back(node_id{i});
      }
    }
    ASSERT_EQ(watchers.size(), kNodes - 1) << "kill " << kill;
    exp.crash_node(victim);
    const time_point crash = sim.now();
    std::optional<time_point> first;
    std::optional<time_point> last;
    while (!watchers.empty() && sim.now() < crash + sec(2)) {
      sim.run_until(sim.now() + msec(1));
      std::erase_if(watchers, [&](node_id n) {
        if (exp.node_service(n)->failure_detector().is_trusted(global_group, victim)) {
          return false;
        }
        if (!first) first = sim.now();
        last = sim.now();
        return true;
      });
    }
    ASSERT_TRUE(watchers.empty()) << "kill " << kill;
    EXPECT_LE(*last - *first, msec(5))
        << "kill " << kill << ": suspicions spread over "
        << to_seconds(*last - *first) * 1e3 << " ms";
    sim.run_until(crash + msec(1500));
    exp.recover_node(victim);
  }
}

}  // namespace
}  // namespace omega::harness
