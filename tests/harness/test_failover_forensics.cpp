// Failover forensics end-to-end: run a traced 3-tier hierarchy, kill the
// global leader, and check that the merged multi-node trace attributes the
// whole measured outage window to the named phases (detection /
// dissemination / election), cross-checked against the ground-truth
// window the experiment itself measured.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/exposition.hpp"
#include "obs/forensics.hpp"

namespace omega::harness {
namespace {

constexpr std::size_t kNodes = 18;

/// 18 nodes, 6 regions of 3, 3 zones, one global group — traced.
scenario traced_three_tier(std::uint64_t seed = 29) {
  scenario sc;
  sc.name = "failover-forensics";
  sc.nodes = kNodes;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.churn = churn_profile::none();
  sc.hierarchy = hierarchy_profile::three_tier(6, 3);
  sc.trace = true;
  sc.seed = seed;
  return sc;
}

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

bool all_coordinators_agree(experiment& exp) {
  const auto agreed = exp.group().agreed_leader();
  if (!agreed.has_value()) return false;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    auto* coord = exp.node_coordinator(node_id{i});
    if (coord == nullptr) continue;
    if (coord->global_leader() != agreed) return false;
  }
  return true;
}

TEST(FailoverForensics, AttributesGlobalLeaderOutageToNamedPhases) {
  experiment exp(traced_three_tier());
  auto& sim = exp.simulator();
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());
  // Let the whole hierarchy converge before injecting the crash.
  {
    const time_point deadline = sim.now() + sec(30);
    while (sim.now() < deadline && !all_coordinators_agree(exp)) {
      sim.run_until(sim.now() + msec(100));
    }
    ASSERT_TRUE(all_coordinators_agree(exp));
  }

  // Ground-truth outage window: crash instant -> every live coordinator
  // agreeing on a live successor.
  const node_id victim{global->value()};
  const time_point crash_at = sim.now();
  exp.crash_node(victim);

  std::optional<process_id> successor;
  const time_point deadline = sim.now() + sec(60);
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + msec(50));
    const auto agreed = exp.group().agreed_leader();
    if (agreed.has_value() && *agreed != *global && all_coordinators_agree(exp)) {
      successor = agreed;
      break;
    }
  }
  ASSERT_TRUE(successor.has_value()) << "no converged successor within 60 s";
  const time_point converged_at = sim.now();
  const double outage_s = to_seconds(converged_at - crash_at);
  ASSERT_GT(outage_s, 0.0);

  const auto budget =
      exp.attribute_outage_dag(victim, crash_at, converged_at, successor);

  // The acceptance gate: >= 95% of the measured re-election interval is
  // attributed to a named phase.
  EXPECT_TRUE(budget.saw_detection) << "no suspicion/accusation of the victim";
  EXPECT_TRUE(budget.saw_engagement) << "no survivor engagement found";
  EXPECT_GE(budget.attributed_fraction(), 0.95)
      << "detection=" << budget.detection_s
      << " dissemination=" << budget.dissemination_s
      << " election=" << budget.election_s << " window=" << budget.window_s();

  // Cross-check against the ground-truth outage window: the phase sum must
  // equal the independently measured crash -> convergence interval.
  EXPECT_NEAR(budget.attributed_s(), outage_s, outage_s * 0.05 + 1e-9);
  EXPECT_NEAR(budget.window_s(), outage_s, 1e-9);

  // Phase sanity: detection dominates on a quiet LAN (the FD freshness
  // deadline is the long pole), and no phase is negative.
  EXPECT_GT(budget.detection_s, 0.0);
  EXPECT_GE(budget.dissemination_s, 0.0);
  EXPECT_GE(budget.election_s, 0.0);
}

TEST(FailoverForensics, MergedTraceIsTimeOrderedAndMultiNode) {
  experiment exp(traced_three_tier(31));
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());

  const auto merged = exp.merged_trace();
  ASSERT_FALSE(merged.empty());
  std::size_t distinct_nodes = 0;
  std::vector<bool> seen(kNodes, false);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(merged[i].at, merged[i - 1].at) << "at index " << i;
    }
    const auto n = merged[i].node;
    ASSERT_TRUE(n.valid());
    if (!seen[n.value()]) {
      seen[n.value()] = true;
      ++distinct_nodes;
    }
  }
  EXPECT_GT(distinct_nodes, kNodes / 2) << "trace should span most nodes";

  // Hierarchy runs annotate tiers: at least the region-tier (0) events and
  // some upper-tier events must carry their tier.
  bool saw_region_tier = false;
  bool saw_upper_tier = false;
  for (const auto& ev : merged) {
    if (ev.tier == 0) saw_region_tier = true;
    if (ev.tier > 0) saw_upper_tier = true;
  }
  EXPECT_TRUE(saw_region_tier);
  EXPECT_TRUE(saw_upper_tier);

  // The merged stream dumps as JSONL (one line per event).
  const std::string jsonl = obs::render_jsonl(merged);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(jsonl.begin(), jsonl.end(), '\n')),
            merged.size());
}

TEST(FailoverForensics, RegistriesSurviveCrashRecoveryMonotonically) {
  experiment exp(traced_three_tier(37));
  auto& sim = exp.simulator();
  const auto global = settle(exp);
  ASSERT_TRUE(global.has_value());

  exp.export_metrics();
  auto* reg = exp.node_registry(node_id{0});
  ASSERT_NE(reg, nullptr);
  const auto before =
      reg->get_counter("omega_messages_sent_total",
                       {{"kind", "alive"}, {"node", "0"}})
          .value();
  EXPECT_GT(before, 0u);

  // Crash node 0 (stats are exported as the instance dies), recover it,
  // run on, re-export: the per-node counter must never move backwards even
  // though the new incarnation restarted its internal counts from zero.
  exp.crash_node(node_id{0});
  auto* reg_after_crash = exp.node_registry(node_id{0});
  ASSERT_EQ(reg, reg_after_crash) << "registry must outlive the instance";
  const auto at_crash =
      reg->get_counter("omega_messages_sent_total",
                       {{"kind", "alive"}, {"node", "0"}})
          .value();
  EXPECT_GE(at_crash, before);

  exp.recover_node(node_id{0});
  sim.run_until(sim.now() + sec(5));
  exp.export_metrics();
  const auto after =
      reg->get_counter("omega_messages_sent_total",
                       {{"kind", "alive"}, {"node", "0"}})
          .value();
  EXPECT_GE(after, at_crash);
}

TEST(FailoverForensics, UntracedScenarioHasNoObservability) {
  scenario sc = traced_three_tier();
  sc.trace = false;
  experiment exp(sc);
  EXPECT_EQ(exp.node_registry(node_id{0}), nullptr);
  EXPECT_EQ(exp.node_trace(node_id{0}), nullptr);
  EXPECT_TRUE(exp.merged_trace().empty());
}

}  // namespace
}  // namespace omega::harness
