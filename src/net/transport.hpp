// Node-to-node datagram transport abstraction.
//
// The service exchanges small datagrams (ALIVE, HELLO, ACCUSE, ...) between
// workstations. `transport` is the only way protocol code touches the
// network, so the same service runs over the simulated network
// (`net::sim_network`) or over real UDP sockets hosted on an event loop
// (`runtime::loop_udp_transport`). Datagram semantics match UDP: unordered,
// unreliable, no connection state.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "net/shared_payload.hpp"

namespace omega::net {

/// A received datagram. `payload` is only valid during the callback.
struct datagram {
  node_id from;
  std::span<const std::byte> payload;
};

using receive_handler = std::function<void(const datagram&)>;

class transport {
 public:
  virtual ~transport() = default;

  /// Sends one datagram to `dst` (fire-and-forget).
  virtual void send(node_id dst, std::span<const std::byte> payload) = 0;

  /// Sends one datagram to every node in `dsts` (the roster-scoped
  /// dissemination path: the caller encodes once, the transport fans out).
  /// The default replicates over `send`; transports with a cheaper group
  /// primitive (kernel multicast, shared-memory rings) can override.
  virtual void multicast(std::span<const node_id> dsts,
                         std::span<const std::byte> payload) {
    for (node_id dst : dsts) send(dst, payload);
  }

  /// Zero-copy variants: the sender encodes once into a buffer from
  /// `pool()` and the transport shares references instead of copying per
  /// destination (the simulated network's in-flight delivery events, the
  /// loop transport's send ring).
  virtual void send(node_id dst, shared_payload payload) = 0;
  virtual void multicast(std::span<const node_id> dsts,
                         shared_payload payload) = 0;

  /// Buffer pool senders encode into; buffers sealed from it are recycled
  /// once the last in-flight reference drops. The simulated network shares
  /// one pool across all its endpoints (the free list is sized by the
  /// cluster-wide ALIVE/HELLO working set); loop transports share their
  /// loop's.
  [[nodiscard]] virtual payload_pool& pool() = 0;

  /// The node this endpoint belongs to.
  [[nodiscard]] virtual node_id local_node() const = 0;

  /// Installs the upcall for incoming datagrams, replacing any previous one.
  /// Pass an empty function to mute the endpoint (e.g. while "crashed").
  virtual void set_receive_handler(receive_handler handler) = 0;
};

/// Per-node traffic totals (both directions), used for the bandwidth and
/// CPU-overhead figures. `bytes_*` include per-datagram framing overhead
/// (UDP + IP + Ethernet headers), mirroring what the paper's testbed
/// measurements would have captured on the wire.
struct traffic_totals {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_received = 0;
};

/// Framing overhead added to every datagram when accounting bytes:
/// 8 (UDP) + 20 (IPv4) + 18 (Ethernet II + FCS).
inline constexpr std::size_t wire_overhead_bytes = 46;

}  // namespace omega::net
