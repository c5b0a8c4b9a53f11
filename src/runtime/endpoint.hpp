// Address plumbing of the real-socket runtime: roster endpoints, the
// (addr, port) -> node classification key, and the per-transport I/O error
// accounting `loop_udp_transport` exports through the observability
// registry (obs/runtime_export.hpp).
#pragma once

#include <netinet/in.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/ids.hpp"

namespace omega::runtime {

struct udp_endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Cluster address book: node id -> UDP endpoint, one entry per
/// workstation (the per-cluster installation config of the paper's
/// deployment).
using udp_roster = std::unordered_map<node_id, udp_endpoint>;

/// Classification key for inbound datagrams.
[[nodiscard]] inline std::uint64_t peer_key(std::uint32_t addr,
                                            std::uint16_t port) {
  return (static_cast<std::uint64_t>(addr) << 16) | port;
}

/// Per-transport datagram and error accounting. Every failed write is
/// classified (EAGAIN = socket buffer full, ENOBUFS = kernel out of buffer
/// space, other = everything else) and queue pressure on the batched path
/// is surfaced, so a saturated host is visible in /metrics instead of
/// masquerading as a lossy LAN.
struct transport_net_stats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t send_err_eagain = 0;
  std::uint64_t send_err_enobufs = 0;
  std::uint64_t send_err_other = 0;
  /// Inbound datagrams from an (addr, port) not in the roster, dropped
  /// after counting (mirrors service_stats::dropped_unknown_group one
  /// layer down).
  std::uint64_t rx_unknown_peer = 0;
  /// Datagrams truncated by the receive buffer (over-long input; the wire
  /// format caps fields well below it, so this indicates junk traffic).
  std::uint64_t rx_truncated = 0;
  /// Datagrams dropped because the bounded send ring was full while the
  /// socket was backpressured.
  std::uint64_t send_queue_drops = 0;
  /// High watermark of the send ring depth (backpressure gauge).
  std::uint64_t send_queue_hwm = 0;

  [[nodiscard]] std::uint64_t send_errors() const {
    return send_err_eagain + send_err_enobufs + send_err_other;
  }

  void count_send_errno(int err) {
    if (err == EAGAIN || err == EWOULDBLOCK) {
      ++send_err_eagain;
    } else if (err == ENOBUFS) {
      ++send_err_enobufs;
    } else {
      ++send_err_other;
    }
  }
};

}  // namespace omega::runtime
