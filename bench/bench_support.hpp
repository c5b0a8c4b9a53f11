// Shared scaffolding for the figure-reproduction bench binaries.
//
// Every bench binary reproduces one figure of the paper's evaluation
// (§6.2–§6.6): it sweeps the figure's x-axis, runs one simulated experiment
// per cell, and prints the measured series next to the values published in
// the paper. Absolute agreement is not expected (the substrate is a
// simulator, not the authors' 12-workstation LAN); the *shape* — who wins,
// by what factor, where the crossovers fall — is what each bench states in
// the "Expected shape" line it prints after its table.
//
// Runtime control:
//   OMEGA_BENCH_HOURS   simulated measurement window per cell (default 2.0;
//                       the paper ran 1–5 *days* per point, which the
//                       deterministic simulator does not need for tight CIs).
//   OMEGA_BENCH_SEED    base RNG seed (default 42); each cell derives its
//                       own stream from it.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"

namespace omega::bench {

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return end != v ? parsed : fallback;
}

inline double bench_hours() { return env_double("OMEGA_BENCH_HOURS", 2.0); }

inline std::uint64_t bench_seed() {
  return static_cast<std::uint64_t>(env_double("OMEGA_BENCH_SEED", 42.0));
}

/// Wall-clock stopwatch. The benches sweep *virtual* time; this measures
/// the real CPU cost of simulating it — the number the hot-path work
/// (DESIGN.md §9) moves, reported as `wall_clock_s` in every BENCH_*.json
/// and gated against regression by scripts/ci.sh.
class wall_timer {
 public:
  wall_timer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The paper's five headline lossy-link settings, in figure order.
struct lossy_setting {
  const char* label;
  duration mean_delay;
  double loss;
};

inline const lossy_setting kLossyGrid[5] = {
    {"(0.025ms, 0)", usec(25), 0.0},        {"(10ms, 0.01)", msec(10), 0.01},
    {"(100ms, 0.01)", msec(100), 0.01},     {"(10ms, 0.1)", msec(10), 0.1},
    {"(100ms, 0.1)", msec(100), 0.1},
};

/// Applies the common CLI/env conventions to a scenario.
inline harness::scenario with_defaults(harness::scenario sc) {
  sc.measured = from_seconds(bench_hours() * 3600.0);
  sc.seed = bench_seed() * 1000003u + std::hash<std::string>{}(sc.name);
  return sc;
}

inline harness::experiment_result run_cell(const harness::scenario& sc) {
  harness::experiment exp(sc);
  return exp.run();
}

/// Cluster-wide wire traffic: datagrams and bytes sent per second, summed
/// over nodes [0, nodes), counted since the last `reset_traffic()` that
/// `span_s` seconds ago opened the window.
struct wire_rate {
  double messages_per_s = 0.0;
  double bytes_per_s = 0.0;
};

inline wire_rate measure_wire_rate(harness::experiment& exp, std::size_t nodes,
                                   double span_s) {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    const auto& t = exp.network().traffic(node_id{static_cast<std::uint32_t>(n)});
    msgs += t.datagrams_sent;
    bytes += t.bytes_sent;
  }
  return {static_cast<double>(msgs) / span_s,
          static_cast<double>(bytes) / span_s};
}

/// Crashes the node hosting the current agreed (global) leader and returns
/// the time until every live node agrees on a different live leader, or -1
/// when no leader settles, or none is re-agreed, within 30 s. The victim
/// then recovers and gets 30 s to rejoin.
inline double measure_failover(harness::experiment& exp) {
  auto& sim = exp.simulator();
  std::optional<process_id> leader = exp.group().agreed_leader();
  const time_point deadline = sim.now() + sec(30);
  while (!leader.has_value() && sim.now() < deadline) {
    sim.run_until(sim.now() + msec(100));
    leader = exp.group().agreed_leader();
  }
  if (!leader.has_value()) return -1.0;  // never settled: report as failure

  const node_id victim{leader->value()};  // harness runs pid i on node i
  const time_point crash_at = sim.now();
  exp.crash_node(victim);
  bool converged = false;
  while (sim.now() < crash_at + sec(30)) {
    sim.run_until(sim.now() + msec(25));
    const auto agreed = exp.group().agreed_leader();
    if (agreed.has_value() && *agreed != *leader) {
      converged = true;
      break;
    }
  }
  // A run that never re-converges is a failed sample, not a ~30 s one.
  const double recovery_s =
      converged ? to_seconds(sim.now() - crash_at) : -1.0;
  exp.recover_node(victim);
  sim.run_until(sim.now() + sec(30));  // let it rejoin cleanly
  return recovery_s;
}

/// `count` failovers in a row: the mean over those that converged, and
/// how many did. The mean is -1 when none did.
struct failover_series {
  double mean_s = -1.0;
  std::size_t samples = 0;
};

inline failover_series measure_failovers(harness::experiment& exp,
                                         std::size_t count) {
  failover_series out;
  double sum = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    const double t = measure_failover(exp);
    if (t < 0.0) continue;
    sum += t;
    ++out.samples;
  }
  if (out.samples > 0) out.mean_s = sum / static_cast<double>(out.samples);
  return out;
}

}  // namespace omega::bench
