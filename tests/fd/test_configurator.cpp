#include "fd/configurator.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace omega::fd {
namespace {

link_estimate make_link(double loss, duration delay, std::size_t samples = 1000) {
  link_estimate est;
  est.loss_probability = loss;
  est.delay_mean = delay;
  est.delay_stddev = delay;  // exponential
  est.samples = samples;
  return est;
}

TEST(DelayTail, ExponentialBasics) {
  const auto link = make_link(0.0, msec(100));
  EXPECT_DOUBLE_EQ(delay_tail(link, delay_tail_model::exponential, 0.0), 1.0);
  EXPECT_NEAR(delay_tail(link, delay_tail_model::exponential, 0.1), 0.3679, 1e-3);
  EXPECT_LT(delay_tail(link, delay_tail_model::exponential, 1.0), 1e-4);
}

TEST(DelayTail, ChebyshevBasics) {
  const auto link = make_link(0.0, msec(100));
  // At or below the mean the bound is vacuous.
  EXPECT_DOUBLE_EQ(delay_tail(link, delay_tail_model::chebyshev, 0.05), 1.0);
  // One stddev above the mean: V/(V+V) = 1/2.
  EXPECT_NEAR(delay_tail(link, delay_tail_model::chebyshev, 0.2), 0.5, 1e-9);
  // Far above: decays quadratically.
  EXPECT_NEAR(delay_tail(link, delay_tail_model::chebyshev, 1.1), 0.01, 2e-3);
}

TEST(DelayTail, ParetoBasics) {
  const auto link = make_link(0.0, msec(100));
  // Moment fit with E = S = 100 ms: alpha = 1 + sqrt(2), x_m ~ 58.6 ms.
  // At or below the fitted scale the tail is certain.
  EXPECT_DOUBLE_EQ(delay_tail(link, delay_tail_model::pareto, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(delay_tail(link, delay_tail_model::pareto, 0.05), 1.0);
  // (x_m / x)^alpha at x = 1 s: (0.0586)^2.414 ~ 1.06e-3.
  EXPECT_NEAR(delay_tail(link, delay_tail_model::pareto, 1.0), 1.06e-3, 2e-4);
  // Monotone decreasing past the scale.
  EXPECT_GT(delay_tail(link, delay_tail_model::pareto, 0.2),
            delay_tail(link, delay_tail_model::pareto, 0.4));
}

TEST(DelayTail, ParetoHeavierThanExponentialFarOut) {
  // The defining property of the heavy tail: polynomial decay dominates
  // exponential decay far from the mean — exactly where freshness points
  // live on a WAN link with a tight detection bound.
  const auto link = make_link(0.0, msec(10));
  for (double x : {0.1, 0.2, 0.5, 1.0}) {  // 10x..100x the mean delay
    EXPECT_GT(delay_tail(link, delay_tail_model::pareto, x),
              delay_tail(link, delay_tail_model::exponential, x))
        << "x=" << x;
  }
}

TEST(MistakeProbability, ParetoMoreConservativeInTheFarTail) {
  // With no loss, q0 is a pure product of tail probabilities; at freshness
  // points tens of mean-delays out, the polynomial tail dominates and the
  // predicted mistake rate is (much) higher than the exponential model's.
  const auto link = make_link(0.0, msec(10));
  const double q_par =
      mistake_probability(link, delay_tail_model::pareto, 0.25, 0.75);
  const double q_exp =
      mistake_probability(link, delay_tail_model::exponential, 0.25, 0.75);
  EXPECT_GT(q_par, q_exp);
}

TEST(Configurator, ParetoFeasiblePointsSatisfyConstraints) {
  // Self-consistency of the heavy-tail solver: every point it claims
  // feasible holds both QoS constraints evaluated under the same model.
  configurator_options opts;
  opts.tail = delay_tail_model::pareto;
  const qos_spec qos = qos_spec::paper_default();
  for (double loss : {0.0, 0.01, 0.05}) {
    for (auto delay : {msec(1), msec(10), msec(50)}) {
      const auto link = make_link(loss, delay);
      const auto params = configure(qos, link, opts);
      EXPECT_EQ(params.eta + params.delta, qos.detection_time);
      if (!params.qos_feasible) continue;
      const double q0 =
          mistake_probability(link, delay_tail_model::pareto,
                              to_seconds(params.eta), to_seconds(params.delta));
      EXPECT_GE(to_seconds(params.eta) / q0, to_seconds(qos.mistake_recurrence))
          << "loss=" << loss << " delay=" << to_seconds(delay);
      EXPECT_GE(1.0 - q0 / (1.0 - loss), qos.query_accuracy);
    }
  }
}

TEST(MistakeProbability, DecreasesWithSmallerEta) {
  const auto link = make_link(0.1, msec(10));
  const double q_large = mistake_probability(link, delay_tail_model::exponential, 0.5, 0.5);
  const double q_small = mistake_probability(link, delay_tail_model::exponential, 0.1, 0.9);
  EXPECT_LT(q_small, q_large);
}

TEST(MistakeProbability, PerfectLinkNearZero) {
  const auto link = make_link(0.0, usec(25));
  const double q = mistake_probability(link, delay_tail_model::exponential, 0.5, 0.5);
  EXPECT_LT(q, 1e-12);
}

TEST(Configurator, ColdStartBeforeEnoughSamples) {
  const qos_spec qos = qos_spec::paper_default();
  const auto params = configure(qos, make_link(0.1, msec(10), /*samples=*/3));
  EXPECT_EQ(params.eta, qos.detection_time / 4);
  EXPECT_EQ(params.delta, qos.detection_time - qos.detection_time / 4);
  EXPECT_FALSE(params.qos_feasible);
}

TEST(Configurator, DetectionBudgetAlwaysRespected) {
  const qos_spec qos = qos_spec::paper_default();
  for (double loss : {0.001, 0.01, 0.1, 0.5}) {
    for (auto delay : {usec(25), msec(1), msec(10), msec(100)}) {
      const auto params = configure(qos, make_link(loss, delay));
      EXPECT_EQ(params.eta + params.delta, qos.detection_time)
          << "loss=" << loss << " delay=" << to_seconds(delay);
      EXPECT_GT(params.eta, duration{0});
    }
  }
}

TEST(Configurator, FeasibleOnPaperSettings) {
  // All five lossy-link settings of the paper admit a feasible operating
  // point under the default QoS (the paper's experiments ran there).
  const qos_spec qos = qos_spec::paper_default();
  const std::pair<duration, double> settings[] = {
      {usec(25), 0.5 / 256.0},  // LAN after the estimator floor
      {msec(10), 0.01},
      {msec(100), 0.01},
      {msec(10), 0.1},
      {msec(100), 0.1},
  };
  for (const auto& [delay, loss] : settings) {
    const auto params = configure(qos, make_link(loss, delay));
    EXPECT_TRUE(params.qos_feasible)
        << "(" << to_seconds(delay) << ", " << loss << ")";
  }
}

TEST(Configurator, WorseLinkMeansFasterHeartbeats) {
  const qos_spec qos = qos_spec::paper_default();
  const auto lan = configure(qos, make_link(0.5 / 256.0, usec(25)));
  const auto mid = configure(qos, make_link(0.01, msec(10)));
  const auto bad = configure(qos, make_link(0.1, msec(100)));
  EXPECT_GE(lan.eta, mid.eta);
  EXPECT_GT(mid.eta, bad.eta);
}

TEST(Configurator, PredictedRecurrenceMeetsRequirement) {
  const qos_spec qos = qos_spec::paper_default();
  const auto link = make_link(0.1, msec(100));
  const auto params = configure(qos, link);
  ASSERT_TRUE(params.qos_feasible);
  const double q0 = mistake_probability(link, delay_tail_model::exponential,
                                        to_seconds(params.eta),
                                        to_seconds(params.delta));
  const double recurrence = to_seconds(params.eta) / q0;
  EXPECT_GE(recurrence, to_seconds(qos.mistake_recurrence));
}

TEST(Configurator, EtaScalesWithDetectionTime) {
  // Figure 8: tightening T^U_D from 1s to 0.1s shrinks both eta and delta.
  qos_spec tight = qos_spec::paper_default();
  tight.detection_time = msec(100);
  const auto link = make_link(0.5 / 256.0, usec(25));
  const auto loose_params = configure(qos_spec::paper_default(), link);
  const auto tight_params = configure(tight, link);
  EXPECT_LT(tight_params.eta, loose_params.eta);
  EXPECT_LT(tight_params.delta, loose_params.delta);
  EXPECT_EQ(tight_params.eta + tight_params.delta, tight.detection_time);
}

TEST(Configurator, InfeasibleFallsBackToBestEffort) {
  // 90% loss with a 1-second budget and a 100-day recurrence bound cannot
  // be met; the configurator must still return a usable operating point.
  const qos_spec qos = qos_spec::paper_default();
  const auto params = configure(qos, make_link(0.9, msec(100)));
  EXPECT_FALSE(params.qos_feasible);
  EXPECT_GT(params.eta, duration{0});
  EXPECT_EQ(params.eta + params.delta, qos.detection_time);
}

TEST(Configurator, InfeasibleFallbackKeepsDeltaAtLeastEta) {
  // A best effort with delta < eta (say eta 990 ms, delta 10 ms) suspects a
  // live sender on any single late or lost heartbeat. The fallback must
  // keep k = floor(delta/eta) + 1 >= 2 whatever the loss estimate.
  qos_spec qos;
  qos.detection_time = sec(1);
  qos.mistake_recurrence = std::chrono::duration_cast<duration>(std::chrono::hours(2));
  qos.query_accuracy = 0.9999;
  for (const double loss : {0.90, 0.95, 0.97}) {
    for (const duration delay : {usec(25), msec(10), msec(100)}) {
      const auto params = configure(qos, make_link(loss, delay));
      EXPECT_FALSE(params.qos_feasible) << loss << " " << to_seconds(delay);
      EXPECT_GE(params.delta, params.eta) << loss << " " << to_seconds(delay);
      EXPECT_EQ(params.eta + params.delta, qos.detection_time);
    }
  }
}

TEST(Configurator, ChebyshevModeIsMoreConservative) {
  configurator_options exp_opts;
  configurator_options cheb_opts;
  cheb_opts.tail = delay_tail_model::chebyshev;
  const auto link = make_link(0.01, msec(10));
  const auto exp_params = configure(qos_spec::paper_default(), link, exp_opts);
  const auto cheb_params = configure(qos_spec::paper_default(), link, cheb_opts);
  // Distribution-free bounds demand at least as much redundancy.
  EXPECT_LE(cheb_params.eta, exp_params.eta);
}

// Property sweep: on every feasible grid point the configurator's chosen
// point satisfies both QoS constraints it claims to satisfy.
class ConfiguratorProperty
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(ConfiguratorProperty, FeasiblePointsSatisfyConstraints) {
  const auto [loss, delay_ms] = GetParam();
  const qos_spec qos = qos_spec::paper_default();
  const auto link = make_link(loss, msec(delay_ms));
  const auto params = configure(qos, link);
  if (!params.qos_feasible) return;  // nothing claimed
  const double eta_s = to_seconds(params.eta);
  const double delta_s = to_seconds(params.delta);
  const double q0 =
      mistake_probability(link, delay_tail_model::exponential, eta_s, delta_s);
  EXPECT_GE(eta_s / q0, to_seconds(qos.mistake_recurrence));
  EXPECT_GE(1.0 - q0 / (1.0 - loss), qos.query_accuracy);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfiguratorProperty,
    ::testing::Combine(::testing::Values(0.001, 0.01, 0.05, 0.1, 0.3),
                       ::testing::Values(1, 10, 50, 100)));

}  // namespace
}  // namespace omega::fd
