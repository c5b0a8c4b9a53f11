// Bridges the real-socket runtime's I/O counters into the metrics
// registry, the same way service_export.hpp publishes `service_stats`:
// counters go through `counter::advance_to` (snapshot-style, monotone even
// across transport rebuilds), gauges are set to the instantaneous value.
//
// Families:
//   runtime_send_errors_total{node,reason}   reason = eagain|enobufs|other
//   runtime_rx_dropped_total{node,reason}    reason = unknown_peer|truncated
//   runtime_send_queue_drops_total{node}     ring overflow under backpressure
//   runtime_send_queue_depth{node}           entries waiting right now
//   runtime_send_queue_high_watermark{node}  deepest the ring has been
//   runtime_transport_datagrams_total{node,dir}
//   runtime_syscalls_total{loop,op}          op = epoll_wait|sendmmsg|...
//   runtime_loop_datagrams_total{loop,dir}
//   runtime_loop_iterations_total{loop}
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "runtime/endpoint.hpp"
#include "runtime/event_loop.hpp"

namespace omega::runtime {
class loop_udp_transport;
}  // namespace omega::runtime

namespace omega::obs {

/// Publishes one transport's counters under its node label. Call on the
/// thread that owns `reg` (for loop transports that is the loop thread).
void export_transport_stats(registry& reg, node_id node,
                            const runtime::transport_net_stats& stats,
                            std::uint64_t queue_depth = 0);

/// Convenience overload reading the transport's own counters.
void export_transport_stats(registry& reg,
                            const runtime::loop_udp_transport& transport);

/// Publishes one loop's syscall/datagram counters under a loop label.
/// `stats` should be a coherent snapshot (event_loop::stats_snapshot).
void export_loop_stats(registry& reg, std::uint64_t loop_index,
                       const runtime::loop_stats& stats);

}  // namespace omega::obs
