// The benchmark's two workloads (see RATIONALE.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace e2e {

struct run_options {
  std::uint64_t seed = 1;
  /// Length of the measured window: wall seconds on live, and the wall
  /// budget the fixed simulated window is sized from on sim.
  int seconds = 20;
  /// Set-ups per run; setup_s reports their median.
  int setup_repeats = 1;
};

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct pass_result {
  /// Broken output checks; any entry fails the run.
  std::vector<std::string> errors;
  std::vector<metric> end_to_end;
  /// Filled by traced passes only.
  std::vector<metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable lines printed ahead of the metrics.
  std::vector<std::string> notes;
};

/// live_failover. A non-null `trace` turns on the decorators, byte capture
/// and replays, and adds the overhead phase.
pass_result run_live(const run_options& opts, tracer* trace);

/// sim_hier_failover. A non-null `trace` adds a traced pass (profiler, byte
/// capture and the per-failover trace analysis) run in lockstep with the
/// untraced one.
pass_result run_sim(const run_options& opts, tracer* trace);

/// Process CPU (user + system) in seconds.
double process_cpu_s();
/// Peak resident set size in MB.
double peak_rss_mb();

}  // namespace e2e
