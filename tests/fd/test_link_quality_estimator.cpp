#include "fd/link_quality_estimator.hpp"

#include <gtest/gtest.h>

#include "common/random.hpp"

namespace omega::fd {
namespace {

const group_id ga{1};
const group_id gb{2};

// Feeds one ALIVE carrying heartbeat `seq` of stream `g`.
void feed(link_quality_estimator& lqe, group_id g, std::uint64_t seq,
          time_point sent, time_point received) {
  lqe.on_heartbeat(sent, received);
  lqe.on_sequence(g, seq);
}

// Feeds `n` heartbeats at interval eta with loss probability `loss` and
// exponential delay `delay_mean`, returning the resulting estimate.
link_estimate feed_stream(link_quality_estimator& lqe, int n, duration eta,
                          double loss, duration delay_mean, std::uint64_t seed) {
  rng r(seed);
  time_point send = time_origin;
  for (int seq = 1; seq <= n; ++seq) {
    send += eta;
    if (r.bernoulli(loss)) continue;  // lost: the monitor never sees it
    const duration d = r.exponential(delay_mean);
    feed(lqe, ga, static_cast<std::uint64_t>(seq), send, send + d);
  }
  return lqe.estimate();
}

TEST(LinkQualityEstimator, NoSamplesYieldsDefaults) {
  link_quality_estimator lqe;
  const link_estimate est = lqe.estimate();
  EXPECT_EQ(est.samples, 0u);
  EXPECT_GT(est.loss_probability, 0.0);  // conservative default
}

TEST(LinkQualityEstimator, EstimatesDelayMean) {
  link_quality_estimator lqe;
  const auto est = feed_stream(lqe, 2000, msec(100), 0.0, msec(10), 1);
  EXPECT_NEAR(to_seconds(est.delay_mean), 0.010, 0.002);
  // Exponential: stddev equals mean.
  EXPECT_NEAR(to_seconds(est.delay_stddev), 0.010, 0.003);
}

TEST(LinkQualityEstimator, EstimatesLossProbability) {
  link_quality_estimator lqe;
  const auto est = feed_stream(lqe, 5000, msec(100), 0.1, msec(1), 2);
  EXPECT_NEAR(est.loss_probability, 0.1, 0.03);
}

TEST(LinkQualityEstimator, CleanLinkHitsLossFloor) {
  link_quality_estimator::options opts;
  link_quality_estimator lqe(opts);
  const auto est = feed_stream(lqe, 5000, msec(100), 0.0, usec(25), 3);
  EXPECT_DOUBLE_EQ(est.loss_probability, opts.loss_floor);
}

TEST(LinkQualityEstimator, HeavyLossEstimated) {
  link_quality_estimator lqe;
  const auto est = feed_stream(lqe, 20000, msec(10), 0.5, msec(1), 4);
  EXPECT_NEAR(est.loss_probability, 0.5, 0.06);
}

TEST(LinkQualityEstimator, AdaptsWhenLinkDegrades) {
  link_quality_estimator lqe;
  feed_stream(lqe, 3000, msec(100), 0.0, msec(1), 5);
  const double clean = lqe.estimate().loss_probability;
  // Continue the same stream but now lossy (sequence numbers keep rising).
  rng r(6);
  time_point send = time_origin + sec(300);
  for (int seq = 3001; seq <= 8000; ++seq) {
    send += msec(100);
    if (r.bernoulli(0.1)) continue;
    feed(lqe, ga, static_cast<std::uint64_t>(seq), send, send + msec(1));
  }
  const double degraded = lqe.estimate().loss_probability;
  EXPECT_GT(degraded, clean * 5);
}

TEST(LinkQualityEstimator, ResetForgetsEverything) {
  link_quality_estimator lqe;
  feed_stream(lqe, 1000, msec(100), 0.3, msec(5), 7);
  lqe.reset();
  EXPECT_EQ(lqe.estimate().samples, 0u);
  EXPECT_EQ(lqe.heartbeats_seen(), 0u);
}

TEST(LinkQualityEstimator, ReorderedHeartbeatsTolerated) {
  link_quality_estimator lqe;
  // Deliver seq 2 before seq 1, repeatedly: span math must not underflow.
  time_point t = time_origin;
  for (std::uint64_t base = 1; base <= 600; base += 2) {
    t += msec(100);
    feed(lqe, ga, base + 1, t, t + msec(2));
    feed(lqe, ga, base, t, t + msec(3));
  }
  const auto est = lqe.estimate();
  EXPECT_LT(est.loss_probability, 0.05);  // nothing was actually lost
}

TEST(LinkQualityEstimator, ClockSkewClampedToZeroDelay) {
  link_quality_estimator lqe;
  for (std::uint64_t seq = 1; seq <= 64; ++seq) {
    const time_point send = time_origin + sec(1) * seq;
    feed(lqe, ga, seq, send, send - usec(50));  // "arrived before sent"
  }
  EXPECT_GE(to_seconds(lqe.estimate().delay_mean), 0.0);
}

TEST(LinkQualityEstimator, SampleCountTracksWindow) {
  link_quality_estimator::options opts;
  opts.delay_window = 100;
  link_quality_estimator lqe(opts);
  feed_stream(lqe, 500, msec(10), 0.0, msec(1), 8);
  EXPECT_EQ(lqe.estimate().samples, 100u);
  EXPECT_EQ(lqe.heartbeats_seen(), 500u);
}

// The stream contract: a sender numbers each group's payloads on their own
// counter, and one ALIVE may carry several. Loss is read per stream, so
// heartbeats of groups this receiver is not sent never count as lost.

TEST(LinkQualityEstimator, InterleavedContiguousStreamsStayAtTheFloor) {
  link_quality_estimator::options opts;
  link_quality_estimator lqe(opts);
  // Stream A rides on every ALIVE, stream B (whose counter is far ahead:
  // its group is older) on every third one.
  time_point t = time_origin;
  std::uint64_t b_seq = 7000;
  for (std::uint64_t a_seq = 1; a_seq <= 3000; ++a_seq) {
    t += msec(100);
    lqe.on_heartbeat(t, t + usec(25));
    lqe.on_sequence(ga, a_seq);
    if (a_seq % 3 == 0) lqe.on_sequence(gb, ++b_seq);
  }
  EXPECT_DOUBLE_EQ(lqe.estimate().loss_probability, opts.loss_floor);
  EXPECT_EQ(lqe.heartbeats_seen(), 3000u);
}

TEST(LinkQualityEstimator, StreamMissingEveryTenthSeqReadsTenPercent) {
  link_quality_estimator lqe;
  time_point t = time_origin;
  for (std::uint64_t seq = 1; seq <= 5000; ++seq) {
    t += msec(100);
    if (seq % 10 == 0) continue;  // lost
    feed(lqe, ga, seq, t, t + usec(25));
  }
  EXPECT_NEAR(lqe.estimate().loss_probability, 0.1, 0.01);
}

TEST(LinkQualityEstimator, DroppedStreamRestartingAtOneDoesNotInflateLoss) {
  link_quality_estimator::options opts;
  link_quality_estimator lqe(opts);
  time_point t = time_origin;
  for (std::uint64_t seq = 1001; seq <= 1100; ++seq) feed(lqe, ga, seq, t, t);
  lqe.drop_stream(ga);
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
    t += msec(100);
    feed(lqe, ga, seq, t, t + usec(25));
  }
  EXPECT_DOUBLE_EQ(lqe.estimate().loss_probability, opts.loss_floor);
}

TEST(LinkQualityEstimator, ResetClearsEveryStream) {
  link_quality_estimator::options opts;
  link_quality_estimator lqe(opts);
  // Two streams, each with a partial epoch far from where they resume.
  time_point t = time_origin;
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    feed(lqe, ga, seq + 5000, t, t);
    lqe.on_sequence(gb, seq + 9000);
  }
  lqe.reset();
  EXPECT_EQ(lqe.heartbeats_seen(), 0u);
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
    t += msec(100);
    feed(lqe, ga, seq, t, t + usec(25));
    lqe.on_sequence(gb, seq);
  }
  EXPECT_DOUBLE_EQ(lqe.estimate().loss_probability, opts.loss_floor);
}

}  // namespace
}  // namespace omega::fd
