#include "adaptive/retuner.hpp"

#include <gtest/gtest.h>

namespace omega::adaptive {
namespace {

fd::link_estimate link(double loss, duration delay, std::size_t samples = 1000) {
  fd::link_estimate e;
  e.loss_probability = loss;
  e.delay_mean = delay;
  e.delay_stddev = delay;
  e.samples = samples;
  return e;
}

fd::qos_spec interactive_qos() {
  fd::qos_spec qos;
  qos.detection_time = sec(1);
  qos.mistake_recurrence =
      std::chrono::duration_cast<omega::duration>(std::chrono::hours(2));
  qos.query_accuracy = 0.9999;
  return qos;
}

time_point at(int seconds) { return time_origin + sec(seconds); }

TEST(RetunerSolve, ColdStartBelowSampleFloor) {
  const auto qos = interactive_qos();
  const auto params = retuner::solve(qos, link(0.01, msec(10), /*samples=*/3));
  EXPECT_EQ(params, fd::cold_start_params(qos));
}

TEST(RetunerSolve, MinDetectionBeatsColdStartOnGoodLink) {
  const auto qos = interactive_qos();
  const auto params = retuner::solve(qos, link(0.002, usec(25)));
  ASSERT_TRUE(params.qos_feasible);
  // Same heartbeat rate as the cold-start point...
  EXPECT_EQ(params.eta, qos.detection_time / 4);
  // ...but strictly faster expected detection.
  EXPECT_LT(retuner::expected_detection_s(params),
            retuner::expected_detection_s(fd::cold_start_params(qos)));
  // And the detection bound still holds.
  EXPECT_LE(params.eta + params.delta, qos.detection_time);
}

TEST(RetunerSolve, MinDetectionRespectsQosConstraints) {
  // The solver rounds loss and delay up before solving, so a point that
  // holds the QoS on the rounded link holds it on the raw one too.
  const auto qos = interactive_qos();
  for (double loss : {0.002, 0.01, 0.05}) {
    for (auto delay : {usec(25), msec(10), msec(50)}) {
      const auto params = retuner::solve(qos, link(loss, delay));
      if (!params.qos_feasible) continue;
      const double q0 = fd::mistake_probability(
          link(loss, delay), to_seconds(params.eta), to_seconds(params.delta));
      EXPECT_GE(to_seconds(params.eta) / q0, to_seconds(qos.mistake_recurrence))
          << "loss=" << loss << " delay=" << to_seconds(delay);
      EXPECT_GE(1.0 - q0 / (1.0 - loss), qos.query_accuracy);
      EXPECT_GE(params.eta, qos.detection_time / 4);  // rate budget held
    }
  }
}

TEST(RetunerSolve, HardRateCapFallsBackToFullWindow) {
  // 30% loss cannot meet the QoS within the budgeted rate; the hard cap
  // keeps eta at the budget and surrenders accuracy explicitly.
  const auto qos = interactive_qos();
  const auto params = retuner::solve(qos, link(0.3, msec(100)));
  EXPECT_FALSE(params.qos_feasible);
  EXPECT_EQ(params.eta, qos.detection_time / 4);
  EXPECT_EQ(params.delta, qos.detection_time - qos.detection_time / 4);
}

TEST(RetunerSolve, WorseLinkNeedsLargerDelta) {
  const auto qos = interactive_qos();
  const auto clean = retuner::solve(qos, link(0.002, usec(25)));
  const auto mid = retuner::solve(qos, link(0.01, msec(10)));
  const auto bad = retuner::solve(qos, link(0.01, msec(50)));
  EXPECT_LT(clean.delta, mid.delta);
  EXPECT_LT(mid.delta, bad.delta);
}

TEST(Retuner, AdoptsInitialPointImmediately) {
  retuner rt(interactive_qos());
  const auto adopted = rt.evaluate(link(0.002, usec(25)), at(0));
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(rt.retune_count(), 1u);
  EXPECT_EQ(rt.current(), *adopted);
}

TEST(Retuner, DeadBandHoldsUnderEstimateJitter) {
  retuner rt(interactive_qos());
  ASSERT_TRUE(rt.evaluate(link(0.01, msec(10)), at(0)).has_value());
  // Jitter well inside one quantization cell, spread over many dwell
  // windows: never a retune.
  for (int t = 20; t < 200; t += 20) {
    const double loss = 0.008 + 0.002 * ((t / 20) % 2);
    const auto delay = msec(9 + (t / 20) % 2);
    EXPECT_FALSE(rt.evaluate(link(loss, delay), at(t)).has_value()) << t;
  }
  EXPECT_EQ(rt.retune_count(), 1u);
}

TEST(Retuner, RetunesOnSustainedLossShift) {
  retuner rt(interactive_qos());
  ASSERT_TRUE(rt.evaluate(link(0.002, usec(25)), at(0)).has_value());
  const auto before = rt.current();
  // Loss jumps two decades and stays there: after the dwell the point moves.
  const auto adopted = rt.evaluate(link(0.05, msec(10)), at(30));
  ASSERT_TRUE(adopted.has_value());
  EXPECT_GT(adopted->delta, before.delta);
  EXPECT_EQ(rt.retune_count(), 2u);
}

TEST(Retuner, DwellBoundsOscillation) {
  // Acceptance criterion: on a stationary lossy link, no more than one
  // retune per min-dwell window no matter how noisy the estimates are.
  retuner rt(interactive_qos());

  std::uint64_t evaluations = 0;
  for (int t = 0; t <= 120; ++t) {  // one evaluation per second
    // Adversarial estimates: alternate between two points whose solutions
    // differ far beyond any dead band.
    const auto est =
        t % 2 == 0 ? link(0.002, usec(25)) : link(0.1, msec(100));
    (void)rt.evaluate(est, at(t));
    ++evaluations;
  }
  EXPECT_EQ(evaluations, 121u);
  // 120 s / 10 s dwell (kMinDwell) = at most 12 windows, plus the initial
  // adoption.
  EXPECT_LE(rt.retune_count(), 13u);
  EXPECT_GE(rt.retune_count(), 2u);  // it did keep adapting
}

TEST(Retuner, StationaryLinkSettlesToOnePoint) {
  retuner rt(interactive_qos());
  // Stationary lossy link with realistic estimator noise around 1%.
  for (int t = 0; t <= 300; t += 2) {
    const double noise = 0.002 * (((t / 2) % 5) - 2);  // +/-0.4% wobble
    (void)rt.evaluate(link(0.011 + noise, msec(10)), at(t));
  }
  // Initial adoption + at most a couple of convergence steps; definitely
  // not one per dwell window (which would be ~30).
  EXPECT_LE(rt.retune_count(), 3u);
}

TEST(RetunerClass, BackgroundMinimizesHeartbeatRate) {
  // Same QoS, same link: the background class picks the largest feasible
  // eta (the paper's cheapest point), the interactive class holds the rate
  // budget and spends it on detection latency.
  const auto qos = interactive_qos();
  retuner bg(qos, qos_class::background);
  retuner ia(qos, qos_class::interactive);
  const auto est = link(0.002, usec(25));
  const auto bg_point = bg.evaluate(est, at(0));
  const auto ia_point = ia.evaluate(est, at(0));
  ASSERT_TRUE(bg_point.has_value());
  ASSERT_TRUE(ia_point.has_value());
  EXPECT_GT(bg_point->eta, ia_point->eta)
      << "background must send fewer heartbeats than interactive";
  EXPECT_TRUE(bg_point->qos_feasible);
  EXPECT_LT(retuner::expected_detection_s(*ia_point),
            retuner::expected_detection_s(*bg_point));
  EXPECT_EQ(bg.service_class(), qos_class::background);
}

TEST(RetunerPerPeer, IndependentStatePerLink) {
  retuner rt(interactive_qos());
  const node_id lan{1};
  const node_id wan{2};
  const auto lan_point = rt.evaluate_peer(lan, link(0.002, usec(25)), at(0));
  const auto wan_point = rt.evaluate_peer(wan, link(0.01, msec(50)), at(0));
  ASSERT_TRUE(lan_point.has_value());
  ASSERT_TRUE(wan_point.has_value());
  // The WAN link pays its own delta; the LAN link keeps its small one.
  EXPECT_LT(lan_point->delta, wan_point->delta);
  EXPECT_EQ(rt.current(lan), *lan_point);
  EXPECT_EQ(rt.current(wan), *wan_point);

  // Per-peer dwell windows are independent: a WAN re-tune right now must
  // not consume the LAN link's dwell budget (and vice versa).
  const auto wan_shift = rt.evaluate_peer(wan, link(0.1, msec(100)), at(30));
  EXPECT_TRUE(wan_shift.has_value());
  EXPECT_FALSE(rt.evaluate_peer(lan, link(0.002, usec(26)), at(30)).has_value())
      << "LAN point should stand: estimate moved within its quantization cell";
  EXPECT_EQ(rt.current(lan), *lan_point);
}

TEST(RetunerPerPeer, ForgetPeerFallsBackToGroupPoint) {
  retuner rt(interactive_qos());
  ASSERT_TRUE(rt.evaluate(link(0.01, msec(10)), at(0)).has_value());
  const node_id peer{5};
  ASSERT_TRUE(rt.evaluate_peer(peer, link(0.002, usec(25)), at(0)).has_value());
  EXPECT_TRUE(rt.has_peer(peer));
  EXPECT_NE(rt.current(peer), rt.current());
  rt.forget_peer(peer);
  EXPECT_FALSE(rt.has_peer(peer));
  EXPECT_EQ(rt.current(peer), rt.current());
  // Damping restarts on return: the next evaluation adopts immediately.
  EXPECT_TRUE(rt.evaluate_peer(peer, link(0.002, usec(25)), at(1)).has_value());
}

TEST(Retuner, StalePointReplacedWhenQosBreaks) {
  retuner rt(interactive_qos());
  ASSERT_TRUE(rt.evaluate(link(0.002, usec(25)), at(0)).has_value());
  const auto lan_point = rt.current();
  ASSERT_TRUE(lan_point.qos_feasible);
  // The link degrades so much that the LAN point violates the QoS: the
  // retuner must not keep it for calm's sake, dead band or not.
  const auto adopted = rt.evaluate(link(0.1, msec(100)), at(20));
  ASSERT_TRUE(adopted.has_value());
  EXPECT_FALSE(retuner::point_feasible(interactive_qos(),
                                       link(0.1, msec(100)), lan_point));
}

}  // namespace
}  // namespace omega::adaptive
