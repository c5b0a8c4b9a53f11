// Tests for the skew-tolerant (NFD-E-style) estimator mode: delay jitter
// estimated without comparable clocks.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "fd/link_quality_estimator.hpp"

namespace omega::fd {
namespace {

link_quality_estimator::options skewed_opts() {
  link_quality_estimator::options o;
  o.synchronized_clocks = false;
  return o;
}

TEST(SkewTolerantEstimator, HugeClockSkewDoesNotInflateDelay) {
  // Sender's clock is 1 hour ahead; true delay is a constant 5 ms.
  link_quality_estimator est(skewed_opts());
  const duration skew = sec(3600);
  time_point now = time_origin + sec(10);
  for (std::uint64_t s = 1; s <= 100; ++s) {
    est.on_heartbeat(now + skew, now + msec(5));
    now += msec(250);
  }
  const auto e = est.estimate();
  // Constant delay == zero jitter: mean re-bases to ~0 regardless of skew.
  EXPECT_LT(to_seconds(e.delay_mean), 0.001);
  EXPECT_LT(to_seconds(e.delay_stddev), 0.001);
}

TEST(SkewTolerantEstimator, NegativeDifferencesHandled) {
  // Receiver's clock behind the sender's: raw differences are negative.
  link_quality_estimator est(skewed_opts());
  time_point now = time_origin + sec(3600);
  for (std::uint64_t s = 1; s <= 100; ++s) {
    est.on_heartbeat(now + sec(100), now + msec(2));
    now += msec(250);
  }
  const auto e = est.estimate();
  EXPECT_GE(to_seconds(e.delay_mean), 0.0);
  EXPECT_LT(to_seconds(e.delay_mean), 0.001);
}

TEST(SkewTolerantEstimator, JitterEstimatedAboveFloor) {
  // Skew 10 min, delays alternating 1 ms / 21 ms: jitter mean should be
  // ~10 ms above the observed floor, stddev ~10 ms.
  link_quality_estimator est(skewed_opts());
  const duration skew = sec(600);
  time_point now = time_origin;
  for (std::uint64_t s = 1; s <= 200; ++s) {
    const duration d = (s % 2 == 0) ? msec(21) : msec(1);
    est.on_heartbeat(now + skew, now + d);
    now += msec(250);
  }
  const auto e = est.estimate();
  EXPECT_NEAR(to_seconds(e.delay_mean), 0.010, 0.002);
  EXPECT_NEAR(to_seconds(e.delay_stddev), 0.010, 0.003);
}

TEST(SkewTolerantEstimator, LossEstimationUnaffectedBySkew) {
  link_quality_estimator est(skewed_opts());
  const duration skew = sec(1234);
  time_point now = time_origin;
  rng r{5};
  std::uint64_t seq = 0;
  for (int i = 0; i < 1000; ++i) {
    ++seq;
    if (r.bernoulli(0.2)) continue;  // dropped
    est.on_heartbeat(now + skew, now + msec(1));
    est.on_sequence(group_id{1}, seq);
    now += msec(100);
  }
  const auto e = est.estimate();
  EXPECT_NEAR(e.loss_probability, 0.2, 0.06);
}

TEST(SkewTolerantEstimator, MatchesSynchronizedModeUpToTheFloor) {
  // With zero skew and exponential delays, the skewed estimate should land
  // close to the synchronized one minus the minimum observed delay.
  link_quality_estimator sync_est;  // default: synchronized
  link_quality_estimator skew_est(skewed_opts());
  rng r{9};
  time_point now = time_origin;
  double min_delay = 1e9;
  for (std::uint64_t s = 1; s <= 256; ++s) {
    const double d = r.exponential(0.010);
    min_delay = std::min(min_delay, d);
    sync_est.on_heartbeat(now, now + from_seconds(d));
    skew_est.on_heartbeat(now, now + from_seconds(d));
    now += msec(250);
  }
  const auto sync_e = sync_est.estimate();
  const auto skew_e = skew_est.estimate();
  EXPECT_NEAR(to_seconds(skew_e.delay_mean),
              to_seconds(sync_e.delay_mean) - min_delay, 1e-6);
  EXPECT_NEAR(to_seconds(skew_e.delay_stddev), to_seconds(sync_e.delay_stddev),
              1e-6);
}

TEST(SkewTolerantEstimator, ResetClearsRawWindow) {
  link_quality_estimator est(skewed_opts());
  est.on_heartbeat(time_origin, time_origin + msec(5));
  ASSERT_GT(est.estimate().samples, 0u);
  est.reset();
  EXPECT_EQ(est.estimate().samples, 0u);
}

}  // namespace
}  // namespace omega::fd
