// Experiment-harness tests: determinism, churn injection, candidate
// restriction, warm-up semantics, and metric extraction plumbing.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace omega::harness {
namespace {

scenario small(election::algorithm alg = election::algorithm::omega_lc) {
  scenario sc;
  sc.name = "harness-test";
  sc.nodes = 4;
  sc.alg = alg;
  sc.links = net::link_profile::lan();
  sc.churn = churn_profile::none();
  sc.measured = sec(60);
  sc.warmup = sec(30);
  sc.seed = 13;
  return sc;
}

TEST(Experiment, SameSeedSameResult) {
  scenario sc = small();
  sc.churn = churn_profile::paper_default();
  sc.churn.mean_uptime = sec(120);
  sc.measured = sec(300);

  experiment a(sc);
  experiment b(sc);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.p_leader, rb.p_leader);
  EXPECT_EQ(ra.tr_mean_s, rb.tr_mean_s);
  EXPECT_EQ(ra.unjustified, rb.unjustified);
  EXPECT_EQ(ra.leader_crashes, rb.leader_crashes);
  EXPECT_EQ(ra.events_executed, rb.events_executed);
  EXPECT_EQ(ra.kb_per_second, rb.kb_per_second);
}

TEST(Experiment, DifferentSeedDifferentTrajectory) {
  scenario sc = small();
  sc.churn = churn_profile::paper_default();
  sc.churn.mean_uptime = sec(120);
  sc.measured = sec(300);

  experiment a(sc);
  sc.seed = 14;
  experiment b(sc);
  EXPECT_NE(a.run().events_executed, b.run().events_executed);
}

TEST(Experiment, ChurnActuallyKillsNodes) {
  scenario sc = small();
  sc.churn = churn_profile::paper_default();
  sc.churn.mean_uptime = sec(60);  // aggressive
  sc.measured = sec(600);
  experiment exp(sc);
  const auto r = exp.run();
  EXPECT_GT(r.leader_crashes + r.justified, 0u)
      << "10 simulated minutes at 1-minute mean uptime must kill leaders";
}

TEST(Experiment, QuietClusterIsPerfect) {
  experiment exp(small());
  const auto r = exp.run();
  EXPECT_DOUBLE_EQ(r.p_leader, 1.0);
  EXPECT_EQ(r.unjustified, 0u);
  EXPECT_EQ(r.tr_samples, 0u);
  EXPECT_GT(r.kb_per_second, 0.0);
}

TEST(Experiment, CandidateRestrictionRespected) {
  scenario sc = small();
  sc.candidates = 2;  // only processes 0 and 1 may lead
  sc.churn = churn_profile::none();
  experiment exp(sc);
  exp.run();
  const auto leader = exp.group().agreed_leader();
  ASSERT_TRUE(leader.has_value());
  EXPECT_LT(leader->value(), 2u);
}

TEST(Experiment, CandidateRestrictionSurvivesLeaderCrash) {
  scenario sc = small();
  sc.candidates = 2;
  experiment exp(sc);
  auto& sim = exp.simulator();
  sim.run_until(time_origin + sec(30));
  const auto leader = exp.group().agreed_leader();
  ASSERT_TRUE(leader.has_value());
  exp.crash_node(node_id{leader->value()});
  sim.run_until(sim.now() + sec(5));
  const auto new_leader = exp.group().agreed_leader();
  ASSERT_TRUE(new_leader.has_value());
  EXPECT_LT(new_leader->value(), 2u);
  EXPECT_NE(*new_leader, *leader);
}

TEST(Experiment, NodeUpTracksCrashAndRecover) {
  scenario sc = small();
  experiment exp(sc);
  exp.simulator().run_until(time_origin + sec(10));
  EXPECT_TRUE(exp.node_up(node_id{2}));
  exp.crash_node(node_id{2});
  EXPECT_FALSE(exp.node_up(node_id{2}));
  EXPECT_EQ(exp.node_service(node_id{2}), nullptr);
  exp.recover_node(node_id{2});
  EXPECT_TRUE(exp.node_up(node_id{2}));
  EXPECT_NE(exp.node_service(node_id{2}), nullptr);
}

TEST(Experiment, RecoveredNodeGetsFreshIncarnation) {
  scenario sc = small();
  experiment exp(sc);
  exp.simulator().run_until(time_origin + sec(10));
  const auto inc_before = exp.node_service(node_id{1})->config().inc;
  exp.crash_node(node_id{1});
  exp.recover_node(node_id{1});
  EXPECT_GT(exp.node_service(node_id{1})->config().inc, inc_before);
}

TEST(Experiment, SimulatedHoursMatchScenario) {
  scenario sc = small();
  sc.measured = sec(720);
  experiment exp(sc);
  const auto r = exp.run();
  EXPECT_NEAR(r.simulated_hours, 0.2, 1e-9);
}

TEST(Experiment, LinkCrashesDegradeOmegaL) {
  // Sanity: the Figure-7 effect exists at test scale. Omega_l's availability
  // with 30s-mean link crashes must fall below its lossy-only availability.
  scenario calm = small(election::algorithm::omega_l);
  calm.measured = sec(600);
  calm.churn = churn_profile::none();
  experiment calm_exp(calm);
  const double calm_avail = calm_exp.run().p_leader;

  scenario hostile = calm;
  hostile.link_crashes = net::link_crash_profile::crashes(sec(30), sec(3));
  experiment hostile_exp(hostile);
  const double hostile_avail = hostile_exp.run().p_leader;

  EXPECT_LT(hostile_avail, calm_avail);
}

TEST(Experiment, OmegaLcBeatsOmegaLUnderLinkCrashes) {
  // The headline robustness ordering, at test scale.
  scenario sc = small(election::algorithm::omega_lc);
  sc.measured = sec(900);
  sc.churn = churn_profile::none();
  sc.link_crashes = net::link_crash_profile::crashes(sec(30), sec(3));
  experiment s2(sc);
  sc.alg = election::algorithm::omega_l;
  experiment s3(sc);
  EXPECT_GT(s2.run().p_leader, s3.run().p_leader);
}

TEST(Experiment, BandwidthGrowsWithClusterSize) {
  scenario four = small(election::algorithm::omega_lc);
  scenario eight = four;
  eight.nodes = 8;
  experiment e4(four);
  experiment e8(eight);
  EXPECT_GT(e8.run().kb_per_second, e4.run().kb_per_second);
}

TEST(Experiment, OmegaLCheaperThanOmegaLc) {
  scenario s2 = small(election::algorithm::omega_lc);
  scenario s3 = small(election::algorithm::omega_l);
  s2.nodes = s3.nodes = 8;
  experiment e2(s2);
  experiment e3(s3);
  const auto r2 = e2.run();
  const auto r3 = e3.run();
  EXPECT_GT(r2.kb_per_second, 2.0 * r3.kb_per_second)
      << "S2 must cost several times S3 at n=8";
}

}  // namespace
}  // namespace omega::harness
