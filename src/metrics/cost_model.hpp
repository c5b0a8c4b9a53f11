// Bandwidth overhead accounting (paper §6.5, Figure 6).
//
// Bandwidth is measured exactly: the simulated network counts every byte
// of every datagram including UDP/IP/Ethernet framing, which is what the
// paper's per-workstation traffic numbers captured. The paper's CPU figure
// has no counterpart here: a discrete-event simulation has no host CPU to
// measure, and a fixed charge per datagram would only rescale the traffic.
// CPU per node is measured on real sockets by bench/fig14_live and by the
// repo benchmark's `cpu_ms_per_node_s`.
#pragma once

#include "common/time.hpp"
#include "net/transport.hpp"

namespace omega::metrics {

struct cost_model {
  /// Kilobytes per second of traffic *generated* by the node (sent bytes,
  /// matching the paper's "KB/s of message traffic per workstation").
  [[nodiscard]] static double sent_kb_per_second(const net::traffic_totals& t,
                                                 duration elapsed);
};

}  // namespace omega::metrics
