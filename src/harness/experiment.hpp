// Experiment runner: builds a simulated cluster for a scenario, injects
// workstation churn, runs the virtual clock, and extracts the paper's QoS
// and overhead metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "harness/scenario.hpp"
#include "harness/skewed_clock.hpp"
#include "hierarchy/coordinator.hpp"
#include "net/adversary.hpp"
#include "metrics/cost_model.hpp"
#include "metrics/group_metrics.hpp"
#include "metrics/hierarchy_metrics.hpp"
#include "net/sim_network.hpp"
#include "obs/causal_graph.hpp"
#include "obs/forensics.hpp"
#include "obs/http_endpoint.hpp"
#include "obs/profiler.hpp"
#include "obs/sink.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"

namespace omega::harness {

/// All numbers extracted from one scenario run.
struct experiment_result {
  // QoS metrics (paper §5).
  double p_leader = 0.0;          // leader availability
  double tr_mean_s = 0.0;         // average leader recovery time (seconds)
  double tr_ci95_s = 0.0;         // 95% confidence half-width
  std::size_t tr_samples = 0;     // number of leader crashes measured
  double lambda_u = 0.0;          // unjustified demotions per hour
  std::uint64_t unjustified = 0;
  std::uint64_t justified = 0;
  std::uint64_t leader_crashes = 0;

  // Overhead (paper §6.5), averaged per workstation.
  double cpu_percent = 0.0;
  double kb_per_second = 0.0;
  /// ALIVE datagrams emitted per workstation per second over the measured
  /// window (the heartbeat rate; the adaptive-tuning figures compare it).
  double alive_per_node_per_second = 0.0;
  /// Operating-point adoptions by the adaptation engines (0 unless the
  /// scenario runs in adaptive tuning mode).
  std::uint64_t retunes = 0;

  // Hierarchy-aware metrics (empty / zero unless `scenario::hierarchy`).
  struct region_result {
    double availability = 0.0;  // region-tier P_leader
    double tr_mean_s = 0.0;     // region-tier leader recovery time
    std::size_t tr_samples = 0;
    std::uint64_t leader_crashes = 0;
  };
  /// Per-region (tier-0) QoS, index = region.
  std::vector<region_result> regions;
  /// Cross-tier blame split of global-leader outages (see
  /// metrics::hierarchy_metrics): resolved by the crashed leader's own
  /// region's failover vs by a global re-election among established
  /// candidates.
  std::uint64_t outages_blamed_regional = 0;
  std::uint64_t outages_blamed_global = 0;
  /// Healthy-leader demotions attributed to injected network faults (only
  /// populated when the scenario runs a fault_script — see DESIGN.md §11).
  std::uint64_t outages_blamed_fault = 0;

  // Run bookkeeping.
  double simulated_hours = 0.0;
  std::uint64_t events_executed = 0;
  /// Real time spent simulating this cell (warm-up + measured window) — the
  /// simulator-cost number the BENCH_*.json wall-clock columns report.
  double wall_clock_s = 0.0;
};

/// The simulated 12-workstation testbed: one `leader_election_service` per
/// node, one application process per service, a single group everyone
/// joins, plus the churn injector that kills and restarts instances.
/// With `scenario::hierarchy` enabled each node instead runs a
/// `hierarchy::hierarchy_coordinator`, and the metrics' ground truth is the
/// *global* (top-tier) leader that every node's coordinator reports.
class experiment {
 public:
  explicit experiment(scenario sc);
  ~experiment();

  experiment(const experiment&) = delete;
  experiment& operator=(const experiment&) = delete;

  /// Runs warm-up + measurement and returns the extracted metrics.
  experiment_result run();

  /// Access for white-box integration tests (valid after construction).
  [[nodiscard]] sim::simulator& simulator() { return sim_; }
  [[nodiscard]] net::sim_network& network() { return *net_; }
  [[nodiscard]] metrics::group_metrics& group() { return metrics_; }
  /// Hierarchy-aware trackers, or nullptr for flat scenarios.
  [[nodiscard]] metrics::hierarchy_metrics* hier_metrics() {
    return hier_metrics_.get();
  }
  [[nodiscard]] service::leader_election_service* node_service(node_id node);
  /// The node's hierarchy coordinator, or nullptr (flat scenario / node
  /// down).
  [[nodiscard]] hierarchy::hierarchy_coordinator* node_coordinator(node_id node);
  /// The hierarchy shape, or nullptr for flat scenarios.
  [[nodiscard]] const hierarchy::topology* topo() const {
    return topo_ ? &*topo_ : nullptr;
  }
  /// The scripted fault plane, or nullptr when `scenario::fault_script` is
  /// empty (no adversary is installed at all on such runs).
  [[nodiscard]] net::adversary* fault_plane() { return adversary_.get(); }
  /// The node's skewed-clock wrapper, or nullptr when no `fault_skew` step
  /// targets it (such nodes read the simulator clock directly).
  [[nodiscard]] skewed_clock* node_clock(node_id node) {
    return nodes_.at(node.value()).clock.get();
  }
  /// True ground truth: is the workstation currently up?
  [[nodiscard]] bool node_up(node_id node) const;
  /// Crash / recover a node on demand (used by tests; the churn injector
  /// uses the same paths).
  void crash_node(node_id node);
  void recover_node(node_id node);

  /// ALIVEs sent by all instances so far, dead incarnations included
  /// (exposed for white-box rate assertions).
  [[nodiscard]] std::uint64_t total_alive_sent() const;
  /// Adaptation-engine adoptions so far, dead incarnations included.
  [[nodiscard]] std::uint64_t total_retunes() const;

  // ---- observability (scenario::trace) -----------------------------------
  // Each node owns one registry + ring recorder for the whole run: they
  // survive crash/recovery cycles of the instrumented service, so exported
  // counters stay monotone and the trace spans incarnations.

  /// The node's metrics registry, or nullptr when tracing is off.
  [[nodiscard]] obs::registry* node_registry(node_id node);
  /// The node's trace ring, or nullptr when tracing is off.
  [[nodiscard]] obs::ring_recorder* node_trace(node_id node);
  /// All nodes' trace events merged into one timeline (time, node, seq
  /// order). Empty when tracing is off.
  [[nodiscard]] std::vector<obs::trace_event> merged_trace() const;
  /// Re-exports every live instance's service_stats into its registry
  /// (crashes export automatically before the instance dies).
  void export_metrics();
  /// Harness-level registry: metrics that belong to the run rather than to
  /// one node (the sim profiler's per-kind handler-time histograms).
  [[nodiscard]] obs::registry& sim_registry() { return sim_metrics_; }

  /// Rebuilds the causal DAG from the merged per-node rings (meaningful on
  /// `scenario::causal` runs; without stamping every event is a root).
  [[nodiscard]] obs::causal_graph build_causal_graph() const;
  /// Forensics over the merged trace: attributes the outage of `victim`'s
  /// leadership over [start, end] on the causal DAG
  /// (obs::causal_graph::attribute_outage, sim timeline; the harness runs
  /// pid i on node i).
  [[nodiscard]] obs::outage_budget attribute_outage_dag(
      node_id victim, time_point start, time_point end,
      std::optional<process_id> resolved_leader = std::nullopt) const;

  /// Mounts the embedded HTTP endpoint on 127.0.0.1:`port` (0 = kernel
  /// pick, see `http_port()`), publishes an initial /metrics + /trace
  /// snapshot and re-publishes every `refresh` of *simulated* time while
  /// the clock advances. Returns false if the socket could not be bound.
  bool serve_http(std::uint16_t port, duration refresh = sec(5));
  /// The endpoint's bound port, or 0 when not serving.
  [[nodiscard]] std::uint16_t http_port() const {
    return http_ ? http_->port() : 0;
  }
  /// Renders and publishes fresh /metrics and /trace snapshots (no-op
  /// unless `serve_http` succeeded).
  void publish_http();

 private:
  struct workstation {
    node_id node;
    process_id pid;
    incarnation next_inc = 1;
    bool up = false;
    /// Clock + timer wrappers for nodes targeted by a `fault_skew` step
    /// (created at construction as zero-skew pass-throughs; null for all
    /// other nodes, which bind the simulator directly). Declared before
    /// `svc`, which holds references into both — the service's destructor
    /// cancels its timers through the wrapper.
    std::unique_ptr<skewed_clock> clock;
    std::unique_ptr<skewed_timer_service> timers;
    std::unique_ptr<service::leader_election_service> svc;
    /// Joined after svc, destroyed before it (holds a reference into it).
    std::unique_ptr<hierarchy::hierarchy_coordinator> coord;
    /// Effective churn dynamics (region-scoped under a hierarchy profile).
    churn_profile churn;
    rng churn_rng{0};
    timer_id churn_timer = no_timer;
  };

  void boot_node(workstation& ws, time_point join_at);
  void start_service(workstation& ws);
  /// Translates one fault_step into simulator timers (apply + revert).
  void schedule_fault_step(const fault_step& step);
  void apply_fault(const fault_action& action);
  void revert_fault(const fault_action& action);
  /// Explicit members plus the nodes of the named tier-0 regions.
  [[nodiscard]] std::vector<node_id> resolve_partition_members(
      const fault_partition& spec) const;
  /// Every directed inter-region link (hierarchy runs) or every directed
  /// non-loopback link (flat runs).
  template <typename Fn>
  void for_each_wan_link(Fn&& fn) const;
  /// Self-rearming sim timer republishing the HTTP snapshots.
  void schedule_http_refresh(duration refresh);
  void schedule_crash(workstation& ws);
  void schedule_recovery(workstation& ws);

  /// Per-node observability plane (scenario::trace). Declared before
  /// `nodes_` so the sinks outlive the service instances pointing at them.
  struct node_obs {
    obs::registry metrics;
    obs::ring_recorder trace;
    obs::sink sink;
    explicit node_obs(std::size_t capacity)
        : trace(capacity), sink(&metrics, &trace) {}
  };

  scenario sc_;
  rng root_rng_;
  sim::simulator sim_;
  std::unique_ptr<net::sim_network> net_;
  /// Scripted fault plane (scenario::fault_script); null when the script is
  /// empty. Destroyed after net_ would be wrong — declared after net_ so it
  /// dies first, and net_ never touches it during destruction.
  std::unique_ptr<net::adversary> adversary_;
  /// Run-scoped metrics + the sim profiler feeding them (scenario::profile_sim).
  obs::registry sim_metrics_;
  std::unique_ptr<obs::profiler> profiler_;
  /// Live telemetry endpoint (serve_http), refreshed by a sim timer.
  std::unique_ptr<obs::http_endpoint> http_;
  std::optional<hierarchy::topology> topo_;
  std::vector<std::unique_ptr<node_obs>> obs_;
  std::vector<workstation> nodes_;
  metrics::group_metrics metrics_;
  /// Per-region trackers + cross-tier blame split (hierarchy scenarios).
  std::unique_ptr<metrics::hierarchy_metrics> hier_metrics_;
  metrics::cost_model cost_;
  group_id group_ = group_id{1};
  /// Counters accumulated from instances destroyed by churn, so rate
  /// accounting survives crash/recovery cycles.
  std::uint64_t dead_alive_sent_ = 0;
  std::uint64_t dead_retunes_ = 0;
};

}  // namespace omega::harness
