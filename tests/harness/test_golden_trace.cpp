// Determinism guard for the simulator hot path (ISSUE 7 satellite).
//
// The zero-copy rewrite (shared payload buffers, slab-allocated events,
// lazy link-crash draws) must not change protocol behaviour: for a fixed
// seed, the merged trace of a 120-node scoped3 run — event order, leader
// changes, everything — must stay byte-for-byte identical to what the
// pre-rewrite simulator produced. The serialized JSONL trace is fingerprinted
// with FNV-1a against a golden constant captured from the seed semantics;
// the same run executed twice must also agree with itself exactly.
//
// If a PR changes this hash *intentionally* (a real protocol change), rerun
// the test, paste the new values from the failure message, and say so in the
// commit — the point of the guard is that such drift is loud, never silent.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/experiment.hpp"
#include "obs/exposition.hpp"

namespace omega::harness {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// The fig12 120-node scoped3 shape (regions of 10 -> zones -> global),
/// shrunk to a test-sized window: settle, one global-leader failover,
/// recovery. Everything that exercises the hot path — ALIVE fan-out over
/// rosters, scoped HELLOs, FD suspicion, hierarchical re-election.
scenario golden_scenario() {
  scenario sc;
  sc.name = "golden-scoped3-120";
  sc.nodes = 120;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.churn = churn_profile::none();
  sc.hierarchy = hierarchy_profile::three_tier(12, 2);
  sc.hierarchy.scoped_hello = true;
  sc.trace = true;
  sc.warmup = sec(30);
  sc.seed = 42ull * 1000003ull + 120ull;  // fig12's 120-node stream
  return sc;
}

/// Crashes the agreed leader (waiting up to 30 s for one), steps until the
/// survivors agree on a successor, then recovers the victim.
void fail_over_leader(experiment& exp) {
  auto& sim = exp.simulator();
  std::optional<process_id> leader = exp.group().agreed_leader();
  const time_point settle_deadline = sim.now() + sec(30);
  while (!leader.has_value() && sim.now() < settle_deadline) {
    sim.run_until(sim.now() + msec(100));
    leader = exp.group().agreed_leader();
  }
  EXPECT_TRUE(leader.has_value());
  if (leader.has_value()) {
    const node_id victim{leader->value()};  // harness runs pid i on node i
    exp.crash_node(victim);
    const time_point crash_at = sim.now();
    while (sim.now() < crash_at + sec(15)) {
      sim.run_until(sim.now() + msec(25));
      const auto agreed = exp.group().agreed_leader();
      if (agreed.has_value() && *agreed != *leader) break;
    }
    exp.recover_node(victim);
  }
}

/// Runs the scenario deterministically: settle, crash the agreed global
/// leader, wait for a successor, recover, settle again. Returns the full
/// merged multi-node trace serialized as JSONL. With `causal` the sinks
/// chain causes and the wire carries stamps — same event stream, each
/// line gaining its "cause" field.
std::string run_golden_trace(bool causal = false) {
  scenario sc = golden_scenario();
  sc.causal = causal;
  experiment exp(sc);
  auto& sim = exp.simulator();
  sim.run_until(time_origin + sec(40));
  fail_over_leader(exp);
  sim.run_until(sim.now() + sec(10));
  return obs::render_jsonl(exp.merged_trace());
}

// Golden fingerprint of the run above, captured from the pre-rewrite
// (seed-semantics) simulator. OMEGA_GOLDEN_* below were produced by the
// heap-of-std::function simulator with per-destination payload copies; the
// zero-copy hot path must reproduce them exactly. Re-pinned, with the
// stamped value below, for intended protocol changes only. First: an
// unpinned monitor's delta became T^U_D minus the announced eta (every
// survivor suspects the dead leader at its last heartbeat + T^U_D), and a
// monitor with a cold estimate stopped requesting the cold-start rate.
// Then: each ALIVE carries only the payloads of the groups whose tables
// hold its destination, and roster-mode listeners HELLO only candidates
// with a live own claim and get candidates-only snapshots. Listeners'
// copies of other listeners now age out, so the trace gains eviction
// events (7924386 -> 9537638 bytes). Then: a sweep leaves out each group's
// entry toward the nodes its ALIVEs reached since the previous sweep, an
// elector applies only the newest payload seq of each process incarnation,
// a scoped listener skips other listeners' HELLO entries, and a snapshot
// never rewrites the local member. The listener churn is gone
// (9537638 -> 8492948 bytes). Then, with the stamped and three-tier values:
// evictions within a sweep leave in pid order (the member table became one
// pid-sorted vector; they left in hash-map bucket order), which reorders
// the eviction events of one sweep and nothing else (same byte counts).
constexpr std::uint64_t kGoldenTraceHash = 0x8be6e1c4f11196baull;
constexpr std::size_t kGoldenTraceBytes = 8492948;

TEST(GoldenTrace, Scoped3RunMatchesSeedSemantics) {
  const std::string jsonl = run_golden_trace();
  EXPECT_FALSE(jsonl.empty());
  EXPECT_EQ(fnv1a(jsonl), kGoldenTraceHash)
      << "merged-trace fingerprint drifted from the seed semantics\n"
      << "  bytes: " << jsonl.size() << " (golden " << kGoldenTraceBytes
      << ")\n  hash: 0x" << std::hex << fnv1a(jsonl)
      << " (golden 0x" << kGoldenTraceHash << ")\n"
      << "First lines:\n" << jsonl.substr(0, 400);
  EXPECT_EQ(jsonl.size(), kGoldenTraceBytes);
}

TEST(GoldenTrace, TwoRunsAreByteIdentical) {
  const std::string first = run_golden_trace();
  const std::string second = run_golden_trace();
  EXPECT_EQ(first, second);
}

// Second fingerprint: the same run with causal stamping on. Stamping must
// not perturb the event timeline (stamps ride existing datagrams; the sim's
// link delays are size-independent), so the JSONL differs from the golden
// stream only by the added "cause" fields — pinned separately.
constexpr std::uint64_t kGoldenStampedHash = 0x83d1ad7d38b70c10ull;
constexpr std::size_t kGoldenStampedBytes = 10218321;

TEST(GoldenTrace, StampedRunHasItsOwnPinnedFingerprint) {
  const std::string jsonl = run_golden_trace(/*causal=*/true);
  EXPECT_FALSE(jsonl.empty());
  EXPECT_EQ(fnv1a(jsonl), kGoldenStampedHash)
      << "stamped-trace fingerprint drifted\n"
      << "  bytes: " << jsonl.size() << " (golden " << kGoldenStampedBytes
      << ")\n  hash: 0x" << std::hex << fnv1a(jsonl) << " (golden 0x"
      << kGoldenStampedHash << ")\nFirst lines:\n"
      << jsonl.substr(0, 400);
  EXPECT_EQ(jsonl.size(), kGoldenStampedBytes);
  EXPECT_GT(jsonl.size(), kGoldenTraceBytes)
      << "stamping on must add cause fields";
}

// Third fingerprint: the adaptive tuning mode, which the runs above never
// enter. The `adaptive_sc` shape of test_adaptive_integration.cpp — a flat
// 6-node omega_lc group, LAN until 90 s, then a lossy 10 ms / 2% network —
// with one leader failover under the re-tuned detector. The trace carries
// the engine's retune events, so this pins the adaptation loop's output
// along with the election it drives.
scenario adaptive_golden_scenario() {
  scenario sc;
  sc.name = "golden-adaptive-6";
  sc.nodes = 6;
  sc.alg = election::algorithm::omega_lc;
  sc.qos.detection_time = sec(1);
  sc.qos.mistake_recurrence =
      std::chrono::duration_cast<omega::duration>(std::chrono::hours(2));
  sc.qos.query_accuracy = 0.9999;
  sc.links = net::link_profile::lan();
  sc.link_phases.push_back({sec(90), net::link_profile::lossy(msec(10), 0.02)});
  sc.churn = churn_profile::none();
  sc.adaptive.mode = adaptive::tuning_mode::adaptive;
  sc.trace = true;
  sc.warmup = sec(30);
  sc.seed = 7;
  return sc;
}

std::string run_adaptive_golden_trace() {
  experiment exp(adaptive_golden_scenario());
  auto& sim = exp.simulator();
  sim.run_until(time_origin + sec(120));
  fail_over_leader(exp);
  sim.run_until(time_origin + sec(180));
  return obs::render_jsonl(exp.merged_trace());
}

// Re-pinned with the four values when periodic HELLOs began to leave out
// what the ALIVEs since the previous sweep delivered: in this flat group
// every member heartbeats its whole table, so no periodic HELLO goes out,
// and a tick now sends to its destinations in node order.
constexpr std::uint64_t kGoldenAdaptiveHash = 0x1a3e0dfe76e5a071ull;
constexpr std::size_t kGoldenAdaptiveBytes = 52378;

TEST(GoldenTrace, AdaptiveRunMatchesPinnedFingerprint) {
  const std::string jsonl = run_adaptive_golden_trace();
  EXPECT_NE(jsonl.find("\"retune\""), std::string::npos)
      << "the adaptive run must trace the engine's retune events";
  EXPECT_EQ(fnv1a(jsonl), kGoldenAdaptiveHash)
      << "adaptive-trace fingerprint drifted\n"
      << "  bytes: " << jsonl.size() << " (golden " << kGoldenAdaptiveBytes
      << ")\n  hash: 0x" << std::hex << fnv1a(jsonl) << " (golden 0x"
      << kGoldenAdaptiveHash << ")\nFirst lines:\n"
      << jsonl.substr(0, 400);
  EXPECT_EQ(jsonl.size(), kGoldenAdaptiveBytes);
  EXPECT_TRUE(jsonl == run_adaptive_golden_trace())
      << "two adaptive runs of the same seed differ";
}

// Fourth fingerprint: the adaptive mode on a three-tier hierarchy. The run
// above tunes interactive groups only; here the zone and global tiers join
// as the background class, so the paper's cheapest-point solver and the
// tuner's rate budget are pinned as well. 18 nodes in 6 regions under 3
// zones, LAN, one global-leader failover.
scenario adaptive_three_tier_golden_scenario() {
  scenario sc;
  sc.name = "golden-adaptive-three-tier-18";
  sc.nodes = 18;
  sc.alg = election::algorithm::omega_lc;
  sc.qos.detection_time = sec(1);
  sc.qos.mistake_recurrence =
      std::chrono::duration_cast<omega::duration>(std::chrono::hours(2));
  sc.qos.query_accuracy = 0.9999;
  sc.links = net::link_profile::lan();
  sc.churn = churn_profile::none();
  sc.hierarchy = hierarchy_profile::three_tier(6, 3);
  sc.hierarchy.global_qos = sc.qos;
  sc.adaptive.mode = adaptive::tuning_mode::adaptive;
  sc.trace = true;
  sc.warmup = sec(30);
  sc.seed = 7;
  return sc;
}

std::string run_adaptive_three_tier_golden_trace() {
  experiment exp(adaptive_three_tier_golden_scenario());
  auto& sim = exp.simulator();
  sim.run_until(time_origin + sec(120));
  fail_over_leader(exp);
  sim.run_until(sim.now() + sec(60));
  return obs::render_jsonl(exp.merged_trace());
}

// Re-pinned, with the scoped3 and stamped values above, when ALIVE
// payloads went per group and roster-mode listeners began to follow live
// candidacy claims, and again with all four when sweeps began to leave out
// what ALIVEs delivered. In this 18-node run the listeners' stale copies
// of the boot-time candidates are now evicted once, about 30 s in
// (270296 -> 281601 bytes). Re-pinned once more when evictions within a
// sweep began to leave in pid order (same byte count).
constexpr std::uint64_t kGoldenAdaptiveThreeTierHash = 0x5ab41bb55c13b8bfull;
constexpr std::size_t kGoldenAdaptiveThreeTierBytes = 281601;

TEST(GoldenTrace, AdaptiveThreeTierRunMatchesPinnedFingerprint) {
  const std::string jsonl = run_adaptive_three_tier_golden_trace();
  EXPECT_NE(jsonl.find("\"retune\""), std::string::npos)
      << "the adaptive run must trace the engine's retune events";
  EXPECT_EQ(fnv1a(jsonl), kGoldenAdaptiveThreeTierHash)
      << "adaptive three-tier trace fingerprint drifted\n"
      << "  bytes: " << jsonl.size() << " (golden "
      << kGoldenAdaptiveThreeTierBytes << ")\n  hash: 0x" << std::hex
      << fnv1a(jsonl) << " (golden 0x" << kGoldenAdaptiveThreeTierHash
      << ")\nFirst lines:\n"
      << jsonl.substr(0, 400);
  EXPECT_EQ(jsonl.size(), kGoldenAdaptiveThreeTierBytes);
}

}  // namespace
}  // namespace omega::harness
