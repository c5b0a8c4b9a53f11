// Experiment scenario description (paper §6.1).
//
// One scenario = one cell of one figure: a cluster size, an election
// algorithm, a link behaviour, a churn model, an FD QoS and a simulated
// duration. The defaults reproduce the paper's standard setting: 12
// workstations, one group with every process a candidate, per-node
// up-time Exp(600 s) / recovery Exp(5 s), FD QoS (1 s, 100 days,
// 0.99999988).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adaptive/engine.hpp"
#include "common/time.hpp"
#include "election/elector.hpp"
#include "fd/qos.hpp"
#include "harness/fault_script.hpp"
#include "net/link_model.hpp"

namespace omega::harness {

/// Workstation crash/recovery dynamics (§6.1 "Workstations behavior").
struct churn_profile {
  bool enabled = true;
  duration mean_uptime = sec(600);
  duration mean_recovery = sec(5);

  static churn_profile none() { return {false, {}, {}}; }
  static churn_profile paper_default() { return {}; }
};

/// One step of a dynamic link profile: at offset `at` from simulation
/// start, every directed link switches to `links`. This is how experiments
/// model a network that degrades (or heals) mid-run: LAN -> lossy -> WAN.
struct link_phase {
  duration at{};
  net::link_profile links;
};

/// Hierarchical election (src/hierarchy/): the roster is split into
/// contiguous regions, every node runs its region's election, and regional
/// leaders are promoted tier by tier until one global group (all other
/// nodes listen there). `scenario::qos`, `fd_class` and `alg` configure
/// the region tier; the upper tiers are configured here. The experiment's
/// ground truth and leader metrics then track the *global* leader, and
/// per-region trackers + the cross-tier blame split land in
/// `experiment_result::regions` / `outages_blamed_*`.
struct hierarchy_profile {
  /// The shape: groups per tier, ending in the single global group (e.g.
  /// {12, 3, 1} = regions -> zones -> global). Empty: no hierarchy.
  std::vector<std::size_t> tiers;
  /// Roster-scoped HELLO/LEAVE dissemination (the coordinator requests
  /// `membership::hello_fanout::roster` on every service). false keeps the
  /// cluster-wide anti-entropy — the pre-scoping baseline that
  /// bench/fig12_roster_scope compares against.
  bool scoped_hello = true;
  /// FD QoS of the upper tiers. They join as the background class (the
  /// coordinator's default), so the listener-heavy upper groups relax
  /// heartbeat rates when adaptive.
  fd::qos_spec global_qos = fd::qos_spec::paper_default();

  static hierarchy_profile none() { return {}; }
  /// Two-tier shape: `regions` leaf groups under one global group.
  static hierarchy_profile with_regions(std::size_t regions) {
    hierarchy_profile h;
    h.tiers = {regions, 1};
    return h;
  }
  /// Three-tier shape: `regions` leaf groups coarsened into `zones` groups
  /// under one global group (the §7 tiered composition at depth 3).
  static hierarchy_profile three_tier(std::size_t regions, std::size_t zones) {
    hierarchy_profile h;
    h.tiers = {regions, zones, 1};
    return h;
  }
};

struct scenario {
  std::string name = "unnamed";
  std::size_t nodes = 12;
  election::algorithm alg = election::algorithm::omega_lc;

  net::link_profile links = net::link_profile::lan();
  /// Scheduled link-profile changes (applied in `at` order on top of the
  /// initial `links`). Empty = the static single-profile runs of the paper.
  std::vector<link_phase> link_phases;
  /// Mixed-topology clusters: the last `wan_nodes` workstations reach (and
  /// are reached by) every peer through `wan_links` instead of `links` —
  /// a LAN cluster with a few members behind a WAN. 0 = homogeneous.
  std::size_t wan_nodes = 0;
  net::link_profile wan_links = net::link_profile::lossy(msec(50), 0.01);
  net::link_crash_profile link_crashes = net::link_crash_profile::none();
  churn_profile churn = churn_profile::paper_default();
  fd::qos_spec qos = fd::qos_spec::paper_default();

  /// Tuning policy of every service instance (continuous = seed behaviour,
  /// frozen = static cold-start baseline, adaptive = adaptation engine)
  /// plus the engine's knobs.
  adaptive::engine_options adaptive{};
  /// QoS class every process joins the group with (adaptive mode only):
  /// interactive minimizes detection latency, background heartbeat rate.
  adaptive::qos_class fd_class = adaptive::qos_class::interactive;

  /// Number of leadership candidates; the first `candidates` pids are
  /// candidates, the rest join as passive (non-candidate) members.
  /// 0 means "all". Ignored when `hierarchy` is enabled (candidacy is the
  /// coordinator's business there).
  std::size_t candidates = 0;

  /// Hierarchical (two-tier) election instead of the single flat group.
  hierarchy_profile hierarchy = hierarchy_profile::none();

  /// Adversarial fault script (DESIGN.md §11): declarative at-time /
  /// for-duration / repeat steps driving the `net::adversary` fault plane
  /// and the per-node skewed clocks. Empty (default) installs no adversary
  /// at all — that run is byte-identical to the pre-adversary harness (the
  /// golden-trace guard proves it).
  std::vector<fault_step> fault_script;

  /// Attach a per-node observability sink (metrics registry + bounded
  /// trace ring) to every service instance. Off by default: the un-traced
  /// run is the overhead baseline the CI gate protects.
  bool trace = false;
  /// Ring capacity (events retained per node) when `trace` is on.
  std::size_t trace_capacity = 2048;
  /// Causal tracing (DESIGN.md §7): activate every sink's causal plane and
  /// stamp causally potent outbound datagrams with the provoking trace
  /// event's cause id (wire envelope v2), so `experiment::build_causal_graph`
  /// can rebuild a failover as a DAG. Needs `trace`; off by default — the
  /// unstamped run is the byte-identity baseline the golden-trace guard and
  /// the overhead gate protect.
  bool causal = false;
  /// Attach the per-event-kind host-time profiler to the simulated network:
  /// `omega_sim_handler_seconds{kind}` histograms land in
  /// `experiment::sim_registry()`. Never touches virtual time.
  bool profile_sim = false;

  /// Simulated measurement window (after warm-up).
  duration measured = std::chrono::duration_cast<duration>(std::chrono::hours(2));
  /// Warm-up before metrics/traffic accounting starts (FD estimator
  /// convergence; churn also starts after the warm-up).
  duration warmup = sec(60);

  std::uint64_t seed = 42;
};

}  // namespace omega::harness
