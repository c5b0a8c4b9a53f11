// Unit tests of metrics::hierarchy_metrics: per-region availability and
// T_r, and the cross-tier blame split of global-leader outages — including
// the edge case where a global outage spans a concurrent regional failover
// (exactly one bucket must take it).
#include "metrics/hierarchy_metrics.hpp"

#include <gtest/gtest.h>

namespace omega::metrics {
namespace {

// 9 processes in 3 regions of 3: region(pid) = pid / 3.
constexpr std::size_t kRegions = 3;

hierarchy_metrics make_tracker() {
  return hierarchy_metrics(kRegions,
                           [](process_id pid) { return pid.value() / 3; });
}

process_id p(std::uint32_t v) { return process_id{v}; }

/// Joins the 3 processes of `region` and agrees them on `leader`.
void agree_region(hierarchy_metrics& hm, std::size_t region, time_point now,
                  std::optional<process_id> leader) {
  for (std::uint32_t i = 0; i < 3; ++i) {
    const process_id pid = p(static_cast<std::uint32_t>(region * 3 + i));
    hm.on_region_view(now, pid, leader);
  }
}

struct fixture {
  hierarchy_metrics hm = make_tracker();
  time_point t0 = time_origin;

  fixture() {
    for (std::uint32_t i = 0; i < 9; ++i) hm.on_join(t0, p(i));
  }
};

TEST(HierarchyMetrics, PerRegionAvailabilityIsIndependent) {
  fixture f;
  // Region 0 agreed, region 1 agreed, region 2 leaderless throughout.
  agree_region(f.hm, 0, f.t0, p(0));
  agree_region(f.hm, 1, f.t0, p(3));
  agree_region(f.hm, 2, f.t0, std::nullopt);
  f.hm.begin(f.t0);
  f.hm.finish(f.t0 + sec(100));

  EXPECT_DOUBLE_EQ(f.hm.region(0).leader_availability(), 1.0);
  EXPECT_DOUBLE_EQ(f.hm.region(1).leader_availability(), 1.0);
  EXPECT_DOUBLE_EQ(f.hm.region(2).leader_availability(), 0.0);
}

TEST(HierarchyMetrics, PerRegionRecoveryTimeTracksThatRegionOnly) {
  fixture f;
  agree_region(f.hm, 0, f.t0, p(0));
  agree_region(f.hm, 1, f.t0, p(3));
  agree_region(f.hm, 2, f.t0, p(6));
  f.hm.begin(f.t0);

  // Region 1's leader crashes; the region re-agrees 2 s later.
  f.hm.on_crash(f.t0 + sec(10), p(3));
  agree_region(f.hm, 1, f.t0 + sec(10), std::nullopt);
  agree_region(f.hm, 1, f.t0 + sec(12), p(4));
  f.hm.finish(f.t0 + sec(100));

  EXPECT_EQ(f.hm.region(1).recovery_times().count(), 1u);
  EXPECT_NEAR(f.hm.region(1).recovery_times().mean(), 2.0, 1e-9);
  EXPECT_EQ(f.hm.region(1).leader_crashes(), 1u);
  EXPECT_EQ(f.hm.region(0).recovery_times().count(), 0u);
  EXPECT_EQ(f.hm.region(2).recovery_times().count(), 0u);
  // Availability of region 1 lost those 2 s; the others stayed perfect.
  EXPECT_NEAR(f.hm.region(1).leader_availability(), 0.98, 1e-9);
  EXPECT_DOUBLE_EQ(f.hm.region(0).leader_availability(), 1.0);
}

TEST(HierarchyMetrics, CrashResolvedInOwnRegionBlamesRegionalFailover) {
  fixture f;
  f.hm.begin(f.t0);
  f.hm.on_global_agreement(f.t0, p(0));

  f.hm.on_global_agreement(f.t0 + sec(10), std::nullopt);
  f.hm.on_crash(f.t0 + sec(10), p(0));
  // Resolved by p(1) — same region as the victim: the vacancy waited on
  // the regional failover + promotion chain.
  f.hm.on_global_agreement(f.t0 + sec(13), p(1));

  EXPECT_EQ(f.hm.outages_blamed_regional(), 1u);
  EXPECT_EQ(f.hm.outages_blamed_global(), 0u);
  EXPECT_EQ(f.hm.outages_unattributed(), 0u);
}

TEST(HierarchyMetrics, CrashResolvedByForeignCandidateBlamesGlobalReelection) {
  fixture f;
  f.hm.begin(f.t0);
  f.hm.on_global_agreement(f.t0, p(0));

  f.hm.on_crash(f.t0 + sec(10), p(0));
  f.hm.on_global_agreement(f.t0 + sec(10), std::nullopt);
  f.hm.on_global_agreement(f.t0 + sec(11), p(4));  // region 1: established

  EXPECT_EQ(f.hm.outages_blamed_regional(), 0u);
  EXPECT_EQ(f.hm.outages_blamed_global(), 1u);
}

TEST(HierarchyMetrics, OutageSpanningRegionalFailoverLandsInExactlyOneBucket) {
  // The edge case: the global leader crashes, its region is leaderless for
  // a while (a regional failover is in flight), but an established foreign
  // candidate resolves the *global* outage first. Exactly one bucket — the
  // resolving one — takes the outage.
  fixture f;
  agree_region(f.hm, 0, f.t0, p(0));
  f.hm.begin(f.t0);
  f.hm.on_global_agreement(f.t0, p(0));

  f.hm.on_crash(f.t0 + sec(10), p(0));
  f.hm.on_global_agreement(f.t0 + sec(10), std::nullopt);
  agree_region(f.hm, 0, f.t0 + sec(10), std::nullopt);  // regional failover opens
  f.hm.on_global_agreement(f.t0 + sec(12), p(4));       // foreign candidate wins
  agree_region(f.hm, 0, f.t0 + sec(14), p(1));          // region heals later

  EXPECT_EQ(f.hm.outages_blamed_global(), 1u);
  EXPECT_EQ(f.hm.outages_blamed_regional(), 0u);
  EXPECT_EQ(f.hm.outages_blamed_global() + f.hm.outages_blamed_regional() +
                f.hm.outages_unattributed(),
            1u);
  // The concurrent regional failover is still visible where it belongs:
  // in region 0's own recovery-time tracker.
  EXPECT_EQ(f.hm.region(0).recovery_times().count(), 1u);
  EXPECT_NEAR(f.hm.region(0).recovery_times().mean(), 4.0, 1e-9);
}

TEST(HierarchyMetrics, HealthyLeaderChangeIsUnattributed) {
  fixture f;
  f.hm.begin(f.t0);
  f.hm.on_global_agreement(f.t0, p(0));
  // Agreement wobbles and lands on another leader although p(0) is alive.
  f.hm.on_global_agreement(f.t0 + sec(10), std::nullopt);
  f.hm.on_global_agreement(f.t0 + sec(11), p(4));

  EXPECT_EQ(f.hm.outages_blamed_regional(), 0u);
  EXPECT_EQ(f.hm.outages_blamed_global(), 0u);
  EXPECT_EQ(f.hm.outages_unattributed(), 1u);
}

TEST(HierarchyMetrics, ReagreementOnSameLeaderIsABlipNotAnOutage) {
  fixture f;
  f.hm.begin(f.t0);
  f.hm.on_global_agreement(f.t0, p(0));
  f.hm.on_global_agreement(f.t0 + sec(10), std::nullopt);
  f.hm.on_global_agreement(f.t0 + sec(11), p(0));

  EXPECT_EQ(f.hm.outages_blamed_regional() + f.hm.outages_blamed_global() +
                f.hm.outages_unattributed(),
            0u);
}

TEST(HierarchyMetrics, SlowReelectionPastJustificationWindowStillBlamed) {
  // The crash is flagged at event time, so a re-election slower than the
  // justification window is still attributed to the crash.
  fixture f;
  f.hm.set_justification_window(sec(2));
  f.hm.begin(f.t0);
  f.hm.on_global_agreement(f.t0, p(0));

  f.hm.on_global_agreement(f.t0 + sec(10), std::nullopt);
  f.hm.on_crash(f.t0 + sec(10), p(0));
  f.hm.on_global_agreement(f.t0 + sec(20), p(4));  // 10 s > window

  EXPECT_EQ(f.hm.outages_blamed_global(), 1u);
  EXPECT_EQ(f.hm.outages_unattributed(), 0u);
}

TEST(HierarchyMetrics, DirectSwitchAfterCrashIsClassified) {
  fixture f;
  f.hm.begin(f.t0);
  f.hm.on_global_agreement(f.t0, p(0));
  f.hm.on_crash(f.t0 + sec(10), p(0));
  // Agreement jumps straight to the successor without a leaderless gap.
  f.hm.on_global_agreement(f.t0 + sec(10) + msec(500), p(1));

  EXPECT_EQ(f.hm.outages_blamed_regional(), 1u);
  EXPECT_EQ(f.hm.outages_blamed_global(), 0u);
}

TEST(HierarchyMetrics, NothingIsCountedOutsideAccounting) {
  fixture f;  // begin() never called
  f.hm.on_global_agreement(f.t0, p(0));
  f.hm.on_crash(f.t0 + sec(10), p(0));
  f.hm.on_global_agreement(f.t0 + sec(10), std::nullopt);
  f.hm.on_global_agreement(f.t0 + sec(12), p(4));

  EXPECT_EQ(f.hm.outages_blamed_regional() + f.hm.outages_blamed_global() +
                f.hm.outages_unattributed(),
            0u);
}

}  // namespace
}  // namespace omega::metrics
