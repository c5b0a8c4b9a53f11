#include "adaptive/link_tracker.hpp"

#include <gtest/gtest.h>

namespace omega::adaptive {
namespace {

fd::link_estimate est(double loss, duration delay, std::size_t samples = 200) {
  fd::link_estimate e;
  e.loss_probability = loss;
  e.delay_mean = delay;
  e.delay_stddev = delay;
  e.samples = samples;
  return e;
}

time_point at(int seconds) { return time_origin + sec(seconds); }

TEST(LinkTracker, TracksObservedPeer) {
  link_tracker tracker;
  tracker.observe(node_id{1}, est(0.01, msec(5)), at(0));
  const auto tracked = tracker.tracked(node_id{1}, at(1));
  ASSERT_TRUE(tracked.has_value());
  EXPECT_DOUBLE_EQ(tracked->loss_probability, 0.01);
  EXPECT_EQ(tracked->delay_mean, msec(5));
  EXPECT_EQ(tracked->samples, 200u);
  EXPECT_FALSE(tracker.tracked(node_id{2}, at(1)).has_value());
}

TEST(LinkTracker, LowConfidenceSnapshotsIgnored) {
  // Below the confidence floor the estimator is still reporting its prior,
  // not the link; those snapshots must not enter the window at all.
  link_tracker tracker;
  tracker.observe(node_id{1}, est(0.5, msec(100), /*samples=*/3), at(0));
  EXPECT_FALSE(tracker.tracked(node_id{1}, at(1)).has_value());
  tracker.observe(node_id{1}, est(0.01, msec(5), /*samples=*/60), at(2));
  const auto tracked = tracker.tracked(node_id{1}, at(3));
  ASSERT_TRUE(tracked.has_value());
  EXPECT_DOUBLE_EQ(tracked->loss_probability, 0.01);  // prior never blended in
}

TEST(LinkTracker, WindowSmoothsAndAgesOut) {
  link_tracker tracker;
  tracker.observe(node_id{1}, est(0.02, msec(10)), at(0));
  tracker.observe(node_id{1}, est(0.04, msec(20)), at(1));
  auto tracked = tracker.tracked(node_id{1}, at(2));
  ASSERT_TRUE(tracked.has_value());
  EXPECT_NEAR(tracked->loss_probability, 0.03, 1e-12);
  EXPECT_EQ(tracked->delay_mean, msec(15));

  // The older snapshot ages past the 30 s window; only the newer one
  // remains.
  tracked = tracker.tracked(node_id{1}, at(30) + msec(500));
  ASSERT_TRUE(tracked.has_value());
  EXPECT_NEAR(tracked->loss_probability, 0.04, 1e-12);
}

TEST(LinkTracker, StalenessDecaysConfidenceNotEstimate) {
  // Confidence halves per 10 s of silence after a 10 s grace period.
  link_tracker tracker;
  tracker.observe(node_id{1}, est(0.01, msec(5), 256), at(0));

  const auto fresh = tracker.tracked(node_id{1}, at(5));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->samples, 256u);

  // One decay period past the grace interval: confidence halves.
  const auto stale = tracker.tracked(node_id{1}, at(20));
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->samples, 128u);
  EXPECT_DOUBLE_EQ(stale->loss_probability, 0.01);  // estimate itself kept

  // Confidence decays monotonically with silence toward zero.
  const auto very_stale = tracker.tracked(node_id{1}, at(120));
  ASSERT_TRUE(very_stale.has_value());
  EXPECT_LT(very_stale->samples, 2u);
}

TEST(LinkTracker, AggregateTakesWorstLink) {
  // Among three peers the 0.9 quantile is the worst link.
  link_tracker tracker;
  tracker.observe(node_id{1}, est(0.001, msec(1), 100), at(0));
  tracker.observe(node_id{2}, est(0.05, msec(30), 200), at(0));
  tracker.observe(node_id{3}, est(0.01, msec(80), 50), at(0));

  const auto agg = tracker.aggregate(at(1));
  EXPECT_DOUBLE_EQ(agg.loss_probability, 0.05);  // worst loss: peer 2
  EXPECT_EQ(agg.delay_mean, msec(80));           // worst delay: peer 3
  EXPECT_EQ(agg.samples, 50u);                   // least-known link: peer 3
}

TEST(LinkTracker, AggregateQuantileRejectsSingleOutlier) {
  link_tracker tracker;
  // Ten well-behaved peers, one excursion.
  for (std::uint32_t i = 1; i <= 10; ++i) {
    tracker.observe(node_id{i}, est(0.01, msec(10)), at(0));
  }
  tracker.observe(node_id{11}, est(0.30, msec(200)), at(0));
  const auto agg = tracker.aggregate(at(1));
  EXPECT_DOUBLE_EQ(agg.loss_probability, 0.01);
  EXPECT_EQ(agg.delay_mean, msec(10));
}

TEST(LinkTracker, AggregateExcludesUnconfidentAndEmpty) {
  link_tracker tracker;
  EXPECT_EQ(tracker.aggregate(at(0)).samples, 0u);  // nothing observed

  // A peer that went silent long ago decays below the floor and drops out
  // of the aggregate instead of dragging it to the cold-start path.
  tracker.observe(node_id{1}, est(0.01, msec(5), 256), at(0));
  tracker.observe(node_id{2}, est(0.02, msec(10), 256), at(299));
  const auto agg = tracker.aggregate(at(300));
  EXPECT_DOUBLE_EQ(agg.loss_probability, 0.02);  // peer 1 aged out entirely
  EXPECT_EQ(agg.samples, 256u);
}

TEST(LinkTracker, ForgetDropsPeer) {
  link_tracker tracker;
  tracker.observe(node_id{1}, est(0.01, msec(5)), at(0));
  EXPECT_EQ(tracker.peer_count(), 1u);
  tracker.forget(node_id{1});
  EXPECT_EQ(tracker.peer_count(), 0u);
  EXPECT_FALSE(tracker.tracked(node_id{1}, at(1)).has_value());
}

}  // namespace
}  // namespace omega::adaptive
