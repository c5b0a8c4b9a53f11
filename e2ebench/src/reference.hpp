// Host-speed reference of the two metrics that time CPU work.
//
// The VM the benchmark runs on changes speed by tens of percent over
// minutes while the program stays the same (see RATIONALE.md). A fixed
// reference workload, compiled from this directory and never from the
// program, is therefore run on the same threads and in the same stretch of
// time as the work it scales. `cpu_ms_per_node_s` and the simulator's
// `setup_s` are reported as the measured time scaled by
// nominal / measured reference time: the time the work would have taken on
// a host that runs the reference in its nominal time. Each reference is
// shaped like the work it scales, so that both slow down alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

/// Time taken by one run of the reference.
struct reference_sample {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;  // calling thread's CPU time
};

/// What the reference is shaped like: the live runtime's work (hash-map
/// churn plus loopback sendmmsg/recvmmsg rounds; its time is the sum) or
/// the simulator's (hash-map churn and a small discrete-event simulation;
/// its time is the geometric mean of the two).
enum class reference_kind : std::uint8_t { sockets, simulation };

class host_reference {
 public:
  explicit host_reference(reference_kind kind);
  ~host_reference();

  host_reference(const host_reference&) = delete;
  host_reference& operator=(const host_reference&) = delete;

  /// Runs the reference once on the calling thread.
  reference_sample run();

 private:
  void hash();
  void udp();
  void simulate();

  reference_kind kind_;
  std::vector<std::byte> arena_;
  std::uint64_t sink_ = 0;
  int fd_ = -1;
};

/// Nominal reference times (round medians measured on the 4-vCPU x86 VM the
/// benchmark was sized on): the sockets reference in thread CPU time, and
/// the simulation reference in wall time (which scales the set-up) and in
/// thread CPU time (which scales the window's CPU).
inline constexpr double kNominalSocketsReferenceCpuNs = 2.0e6;
inline constexpr double kNominalSimulationReferenceWallNs = 2.4e6;
inline constexpr double kNominalSimulationReferenceCpuNs = 2.4e6;

/// Thread CPU time of the calling thread in nanoseconds.
std::int64_t thread_cpu_ns();

}  // namespace e2e
