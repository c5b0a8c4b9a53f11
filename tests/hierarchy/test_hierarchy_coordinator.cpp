// Failover tests of the hierarchy coordinator: promotion of a regional
// replacement into the global group, stale-incarnation rejoin safety, and
// the listener invariant (only regional leaders ever compete globally).
#include "hierarchy/coordinator.hpp"

#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace omega::harness {
namespace {

scenario hier_sc(std::size_t nodes = 9, std::size_t regions = 3) {
  scenario sc;
  sc.name = "hierarchy-test";
  sc.nodes = nodes;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.churn = churn_profile::none();
  sc.hierarchy = hierarchy_profile::with_regions(regions);
  sc.seed = 17;
  return sc;
}

/// Runs the sim until every live node agrees on a global leader (bounded),
/// returning it. Waits out the experiment's staggered boot first so that
/// early agreement among the first joiners does not end the settling while
/// some nodes are still down.
std::optional<process_id> settle(experiment& exp, duration budget = sec(30)) {
  auto& sim = exp.simulator();
  if (sim.now() < time_origin + sec(5)) sim.run_until(time_origin + sec(5));
  const time_point deadline = sim.now() + budget;
  while (sim.now() < deadline) {
    if (auto agreed = exp.group().agreed_leader()) return agreed;
    sim.run_until(sim.now() + msec(100));
  }
  return exp.group().agreed_leader();
}

TEST(HierarchyCoordinator, SettlesOnGlobalLeaderWithRegionalCandidateSet) {
  experiment exp(hier_sc());
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());

  // Exactly the regional leaders compete globally; everyone else listens.
  std::size_t global_candidates = 0;
  for (std::uint32_t i = 0; i < 9; ++i) {
    auto* coord = exp.node_coordinator(node_id{i});
    ASSERT_NE(coord, nullptr);
    const auto region_leader = coord->leader(0);
    ASSERT_TRUE(region_leader.has_value());
    EXPECT_EQ(coord->candidate_at(1), *region_leader == coord->pid());
    if (coord->candidate_at(1)) ++global_candidates;
    // The global leader must itself be a regional leader.
    if (*global == coord->pid()) EXPECT_TRUE(coord->candidate_at(1));
  }
  EXPECT_EQ(global_candidates, 3u);
}

TEST(HierarchyCoordinator, RegionalLeaderCrashPromotesReplacement) {
  experiment exp(hier_sc());
  auto& sim = exp.simulator();
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());

  const node_id victim{global->value()};
  const std::size_t crashed_region =
      exp.topo()->region_of(victim);
  exp.crash_node(victim);

  // Both tiers must heal: a new global leader that is not the victim, and
  // a replacement regional leader in the crashed region, promoted into the
  // global election.
  const time_point deadline = sim.now() + sec(20);
  std::optional<process_id> healed;
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + msec(50));
    const auto agreed = exp.group().agreed_leader();
    if (agreed.has_value() && *agreed != *global) {
      healed = agreed;
      break;
    }
  }
  ASSERT_TRUE(healed.has_value());
  EXPECT_NE(*healed, *global);

  // Let the crashed region's own election finish too, then check promotion.
  sim.run_until(sim.now() + sec(10));
  hierarchy::hierarchy_coordinator* replacement = nullptr;
  for (std::uint32_t i = 0; i < 9; ++i) {
    const node_id n{i};
    if (n == victim || exp.topo()->region_of(n) != crashed_region) continue;
    auto* coord = exp.node_coordinator(n);
    ASSERT_NE(coord, nullptr);
    const auto region_leader = coord->leader(0);
    ASSERT_TRUE(region_leader.has_value());
    EXPECT_NE(region_leader->value(), victim.value());
    if (*region_leader == coord->pid()) replacement = coord;
  }
  ASSERT_NE(replacement, nullptr);
  EXPECT_TRUE(replacement->candidate_at(1));
  EXPECT_GE(replacement->promotions(), 1u);
}

TEST(HierarchyCoordinator, StaleIncarnationRejoinDoesNotDemoteGlobalLeader) {
  experiment exp(hier_sc());
  auto& sim = exp.simulator();
  const auto first = settle(exp);
  ASSERT_TRUE(first.has_value());

  // Crash the global leader, let a successor establish itself.
  const node_id victim{first->value()};
  exp.crash_node(victim);
  const time_point deadline = sim.now() + sec(20);
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

  // The old leader recovers with a higher incarnation and rejoins the
  // hierarchy. Its fresh accusation time ranks it behind the established
  // successor on both tiers: the global leader must not move.
  exp.recover_node(victim);
  const time_point observe_until = sim.now() + sec(60);
  while (sim.now() < observe_until) {
    sim.run_until(sim.now() + msec(200));
    const auto agreed = exp.group().agreed_leader();
    if (agreed.has_value()) {
      EXPECT_EQ(*agreed, *successor)
          << "recovered stale leader demoted the established one at t="
          << to_seconds(sim.now() - time_origin);
      if (agreed != successor) break;
    }
  }
  EXPECT_EQ(exp.group().agreed_leader(), successor);
  // And the recovered node is back as a listener, not a global candidate.
  auto* recovered = exp.node_coordinator(victim);
  ASSERT_NE(recovered, nullptr);
  EXPECT_FALSE(recovered->candidate_at(1));
}

TEST(HierarchyCoordinator, ListenersNeverBecomeGlobalCandidates) {
  // Region-scoped links: LAN inside regions, heavy-tailed (Pareto) WAN
  // between them — the deployment shape the hierarchy is for.
  experiment exp(hier_sc());
  const net::link_profile wan = net::link_profile::heavy_tailed(msec(20), 0.01);
  for (std::uint32_t a = 0; a < 9; ++a) {
    for (std::uint32_t b = 0; b < 9; ++b) {
      if (a != b && !exp.topo()->same_region(node_id{a}, node_id{b})) {
        exp.network().set_link_profile(node_id{a}, node_id{b}, wan);
      }
    }
  }
  auto& sim = exp.simulator();
  ASSERT_TRUE(settle(exp).has_value());

  // Churn a regional leader mid-run, then sample the invariant: a node that
  // sees another process leading its region is never a global candidate.
  // (During a leaderless window — view nullopt — candidacy is deliberately
  // held, so the invariant conditions on a definite foreign leader.)
  const auto global = exp.group().agreed_leader();
  ASSERT_TRUE(global.has_value());
  const node_id churned{global->value()};
  bool crashed = false;
  bool recovered = false;
  const time_point start = sim.now();
  const time_point end = start + sec(60);
  while (sim.now() < end) {
    sim.run_until(sim.now() + msec(500));
    if (!crashed && sim.now() >= start + sec(10)) {
      exp.crash_node(churned);
      crashed = true;
    } else if (crashed && !recovered && sim.now() >= start + sec(25)) {
      exp.recover_node(churned);
      recovered = true;
    }
    for (std::uint32_t i = 0; i < 9; ++i) {
      auto* coord = exp.node_coordinator(node_id{i});
      if (coord == nullptr) continue;
      const auto region_leader = coord->leader(0);
      if (region_leader.has_value() && *region_leader != coord->pid()) {
        EXPECT_FALSE(coord->candidate_at(1))
            << "node " << i << " listens to region leader "
            << region_leader->value() << " but competes globally at t="
            << to_seconds(sim.now() - time_origin);
      }
    }
  }
  EXPECT_TRUE(crashed);
  EXPECT_TRUE(recovered);
}

}  // namespace
}  // namespace omega::harness
