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

}  // namespace omega::bench
