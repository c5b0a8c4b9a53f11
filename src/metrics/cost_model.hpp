// CPU and bandwidth overhead accounting (paper §6.5, Figure 6).
//
// Bandwidth is measured exactly: the simulated network counts every byte
// of every datagram including UDP/IP/Ethernet framing, which is what the
// paper's per-workstation traffic numbers captured.
//
// CPU cannot be measured in a discrete-event simulation, so we use a work
// proxy: each datagram sent or received costs a fixed per-datagram budget
// plus a per-byte budget (syscall + protocol handling dominate at these
// message sizes). The constants are an uncalibrated proxy: bench/fig14_live
// measures about 3.7 us per datagram sent or received on real sockets at
// 256 services (BENCH_live.json), well under the 15 us charged here. They
// are held fixed across every algorithm, network setting and group size,
// so the *shape* Figure 6 reports — quadratic growth for S2 vs. linear for
// S3, higher cost on worse links — is preserved by construction; the
// absolute percentages are not a measurement.
#pragma once

#include "common/time.hpp"
#include "net/transport.hpp"

namespace omega::metrics {

struct cost_model {
  /// Cost per datagram sent or received (syscall, parse, dispatch).
  double us_per_datagram = 15.0;
  /// Incremental cost per payload byte (copy + checksum).
  double us_per_kilobyte = 2.0;

  /// Percentage of one CPU consumed by the given traffic over `elapsed`.
  [[nodiscard]] double cpu_percent(const net::traffic_totals& t,
                                   duration elapsed) const;

  /// Kilobytes per second of traffic *generated* by the node (sent bytes,
  /// matching the paper's "KB/s of message traffic per workstation").
  [[nodiscard]] static double sent_kb_per_second(const net::traffic_totals& t,
                                                 duration elapsed);
};

}  // namespace omega::metrics
