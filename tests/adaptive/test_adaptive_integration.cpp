// Integration tests of the adaptation engine against the full service
// stack: a mid-run LAN -> lossy phase change must be absorbed by re-tuning
// (detection stays within the QoS bound, heartbeat rate stays within the
// budget), and the re-tuned detector must leave omega_lc's accusation-time
// ranking intact (a recovered process ranks behind the established leader).
#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace omega::harness {
namespace {

fd::qos_spec interactive_qos() {
  fd::qos_spec qos;
  qos.detection_time = sec(1);
  qos.mistake_recurrence =
      std::chrono::duration_cast<omega::duration>(std::chrono::hours(2));
  qos.query_accuracy = 0.9999;
  return qos;
}

scenario adaptive_sc(std::size_t nodes = 6) {
  scenario sc;
  sc.name = "adaptive-integration";
  sc.nodes = nodes;
  sc.alg = election::algorithm::omega_lc;
  sc.qos = interactive_qos();
  sc.links = net::link_profile::lan();
  sc.churn = churn_profile::none();
  sc.adaptive.mode = adaptive::tuning_mode::adaptive;
  sc.warmup = sec(30);
  sc.measured = sec(300);
  sc.seed = 7;
  // Mid-run degradation: LAN for 90 s, then a lossy 10 ms / 2% network.
  sc.link_phases.push_back({sec(90), net::link_profile::lossy(msec(10), 0.02)});
  return sc;
}

/// Crashes the current leader and returns how long the survivors took to
/// agree on a new one (simulated seconds).
double measure_recovery(experiment& exp) {
  auto& sim = exp.simulator();
  const auto leader = exp.group().agreed_leader();
  EXPECT_TRUE(leader.has_value());
  const node_id lnode{leader->value()};
  const time_point crash_at = sim.now();
  exp.crash_node(lnode);
  // Step until the survivors agree on a new live leader (bounded wait).
  while (sim.now() < crash_at + sec(10)) {
    sim.run_until(sim.now() + msec(10));
    const auto agreed = exp.group().agreed_leader();
    if (agreed.has_value() && *agreed != *leader) break;
  }
  const double recovery_s = to_seconds(sim.now() - crash_at);
  exp.recover_node(lnode);
  sim.run_until(sim.now() + sec(20));  // let it rejoin cleanly
  return recovery_s;
}

TEST(AdaptiveIntegration, RetunesThroughPhaseChangeAndDetectionRecovers) {
  experiment exp(adaptive_sc());
  auto& sim = exp.simulator();
  exp.group().begin(time_origin);

  // Settle on the LAN and verify the engine tightened delta below the
  // cold-start point at the budgeted rate.
  sim.run_until(time_origin + sec(80));
  auto* svc = exp.node_service(node_id{0});
  ASSERT_NE(svc, nullptr);
  ASSERT_NE(svc->adaptation(), nullptr);
  const auto* rt = svc->adaptation()->retuner_for(group_id{1});
  ASSERT_NE(rt, nullptr);
  const auto lan_params = rt->current();
  EXPECT_TRUE(lan_params.qos_feasible);
  EXPECT_EQ(lan_params.eta, interactive_qos().detection_time / 4);
  EXPECT_LT(lan_params.delta, interactive_qos().detection_time / 2);

  const double lan_recovery = measure_recovery(exp);
  EXPECT_LT(lan_recovery, 1.0) << "LAN-phase detection above the QoS bound";

  // Cross the phase change and give the estimators + dwell time to adapt.
  sim.run_until(time_origin + sec(220));
  svc = exp.node_service(node_id{0});
  ASSERT_NE(svc, nullptr);
  rt = svc->adaptation()->retuner_for(group_id{1});
  ASSERT_NE(rt, nullptr);
  const auto lossy_params = rt->current();
  EXPECT_GT(lossy_params.delta, lan_params.delta)
      << "retuner did not widen delta for the lossy phase";
  EXPECT_GE(lossy_params.eta, interactive_qos().detection_time / 4)
      << "retuner exceeded the heartbeat-rate budget";

  // Detection after the phase change recovers to within the QoS bound
  // (plus one message delay of agreement slack).
  const double lossy_recovery = measure_recovery(exp);
  EXPECT_LT(lossy_recovery, 1.3)
      << "post-degradation detection did not recover";
}

TEST(AdaptiveIntegration, MessageRateStaysWithinBudgetAcrossPhases) {
  experiment exp(adaptive_sc());
  auto& sim = exp.simulator();

  // Measure the ALIVE rate over the whole run, phases included.
  sim.run_until(time_origin + sec(30));
  const std::uint64_t base = exp.total_alive_sent();
  const time_point from = sim.now();
  sim.run_until(time_origin + sec(330));
  const double per_node_per_s =
      static_cast<double>(exp.total_alive_sent() - base) /
      (to_seconds(sim.now() - from) * 6.0);

  // Budget: eta = T/4 = 250 ms => 4 ALIVE/s, plus a little slack for
  // event-driven eager sends.
  EXPECT_LE(per_node_per_s, 4.3);
  // And the cluster did adapt rather than idle.
  EXPECT_GE(exp.total_retunes(), 12u);  // >= initial + solved per engine
}

TEST(AdaptiveIntegration, PerLinkKeepsGoodLinksFastOnMixedTopology) {
  // 4 LAN nodes + 2 nodes behind WAN-grade links. Per-link refinement must
  // keep the LAN monitors at their own small delta while the WAN monitors
  // pay theirs; the group-global baseline drags everyone to the aggregate.
  scenario sc = adaptive_sc(6);
  sc.link_phases.clear();
  sc.wan_nodes = 2;
  sc.wan_links = net::link_profile::lossy(msec(50), 0.01);

  experiment exp(sc);
  exp.simulator().run_until(time_origin + sec(150));
  auto* svc = exp.node_service(node_id{0});
  ASSERT_NE(svc, nullptr);
  const auto lan_params =
      svc->failure_detector().current_params(group_id{1}, node_id{1});
  const auto wan_params =
      svc->failure_detector().current_params(group_id{1}, node_id{5});
  EXPECT_LT(lan_params.delta, wan_params.delta)
      << "the LAN link must not inherit the WAN link's freshness shift";
  EXPECT_TRUE(lan_params.qos_feasible);
  // Both operating points stay within the detection bound.
  EXPECT_LE(lan_params.eta + lan_params.delta, sc.qos.detection_time);
  EXPECT_LE(wan_params.eta + wan_params.delta, sc.qos.detection_time);

  // Group-global baseline on the identical scenario: one point for all.
  scenario global_sc = sc;
  global_sc.adaptive.per_link = false;
  experiment global_exp(global_sc);
  global_exp.simulator().run_until(time_origin + sec(150));
  auto* global_svc = global_exp.node_service(node_id{0});
  ASSERT_NE(global_svc, nullptr);
  const auto global_lan =
      global_svc->failure_detector().current_params(group_id{1}, node_id{1});
  const auto global_wan =
      global_svc->failure_detector().current_params(group_id{1}, node_id{5});
  EXPECT_EQ(global_lan, global_wan)
      << "without per-link refinement every monitor shares the aggregate";
  EXPECT_LT(lan_params.delta, global_lan.delta)
      << "per-link must beat group-global on the good links";
}

TEST(AdaptiveIntegration, BackgroundClassTradesDetectionForTraffic) {
  // Identical clusters, one interactive and one background: background
  // must send measurably fewer heartbeats while staying inside the same
  // detection bound (eta + delta <= T^U_D).
  scenario ia_sc = adaptive_sc(4);
  ia_sc.link_phases.clear();
  scenario bg_sc = ia_sc;
  bg_sc.fd_class = adaptive::qos_class::background;

  experiment ia(ia_sc);
  experiment bg(bg_sc);
  const auto rate_after_settle = [](experiment& exp) {
    auto& sim = exp.simulator();
    sim.run_until(time_origin + sec(120));
    const std::uint64_t base = exp.total_alive_sent();
    const time_point from = sim.now();
    sim.run_until(time_origin + sec(240));
    return static_cast<double>(exp.total_alive_sent() - base) /
           (to_seconds(sim.now() - from) * 4.0);
  };
  const double ia_rate = rate_after_settle(ia);
  const double bg_rate = rate_after_settle(bg);
  EXPECT_LT(bg_rate, ia_rate * 0.8)
      << "background class should relax the heartbeat stream";

  auto* svc = bg.node_service(node_id{0});
  ASSERT_NE(svc, nullptr);
  const auto* rt = svc->adaptation()->retuner_for(group_id{1});
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->service_class(), adaptive::qos_class::background);
  const auto params = rt->current();
  EXPECT_TRUE(params.qos_feasible);
  EXPECT_LE(params.eta + params.delta, ia_sc.qos.detection_time);
  EXPECT_GT(params.eta, ia_sc.qos.detection_time / 4)
      << "background should send slower than the interactive budget";
}

TEST(AdaptiveIntegration, RecoveredRankFavouriteRanksBehindEstablishedLeader) {
  // Omega_lc's accusation time is its stability order: a (re)join counts as
  // an accusation, so a freshly recovered process ranks behind every
  // established candidate — even pid 0, the favourite of the id tie-break.
  // Re-tuning must not disturb that: no surviving node may adopt the
  // recovered process as leader, not even transiently.
  scenario sc = adaptive_sc(4);
  sc.link_phases.clear();
  sc.trace = true;
  experiment exp(sc);
  auto& sim = exp.simulator();
  sim.run_until(time_origin + sec(60));
  ASSERT_TRUE(exp.group().agreed_leader().has_value());

  // Crash the favourite (a failover when it leads) and let a successor
  // establish itself before it comes back.
  const node_id favourite{0};
  exp.crash_node(favourite);
  sim.run_until(sim.now() + sec(10));
  const auto established = exp.group().agreed_leader();
  ASSERT_TRUE(established.has_value());
  ASSERT_NE(established->value(), favourite.value());

  const time_point recovered_at = sim.now();
  exp.recover_node(favourite);
  sim.run_until(recovered_at + sec(30));
  EXPECT_EQ(exp.group().agreed_leader(), established)
      << "fresh recovery must rank behind the established leader";
  for (const auto& ev : exp.merged_trace()) {
    if (ev.kind != obs::event_kind::leader_change || ev.at < recovered_at ||
        ev.node == favourite) {
      continue;
    }
    EXPECT_NE(ev.subject.value(), favourite.value())
        << "node " << ev.node.value() << " adopted the recovered process at "
        << to_seconds(ev.at - time_origin) << " s";
  }
}

}  // namespace
}  // namespace omega::harness
