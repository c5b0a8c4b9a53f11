// Replayed layer costs of the traced run.
//
// The receive upcall of a service runs wire decode, failure detection,
// membership and election back to back; splitting its time needs spans
// inside the service. Until then the traced run captures real datagrams
// and replays them through each layer's public entry point:
//
//   * `append_proto_metrics` times proto::decode_into and
//     proto::encode_shared on the captured datagrams of each wire kind;
//   * `replay_stream` feeds one node's captured inbound stream, on a
//     sim::simulator clock, to a standalone fd::fd_manager::on_alive,
//     membership::group_maintenance::on_alive and the elector's
//     on_alive_payload + evaluate — the order the service runs them in.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "decorators.hpp"
#include "fd/qos.hpp"
#include "manifest.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace e2e {

/// Wire kinds the per-layer metrics name, by proto::msg_kind value.
inline constexpr std::pair<std::size_t, const char*> kReportedKinds[] = {
    {1, "alive"}, {3, "hello"}, {4, "hello_ack"}, {2, "accuse"}};

/// Sets proto.decode_ns.<kind> and proto.encode_ns.<kind> (timed on
/// `samples`) and proto.bytes.<kind> (mean payload bytes of the sent
/// datagrams counted in `dgrams`/`bytes`) for the reported kinds that have
/// data. Encode times cover ALIVE and HELLO, bytes every kind but ACCUSE.
void set_proto_metrics(
    metric_set& out,
    const std::array<std::vector<std::vector<std::byte>>, kWireKinds>& samples,
    const std::array<std::uint64_t, kWireKinds>& dgrams,
    const std::array<std::uint64_t, kWireKinds>& bytes);

struct layer_costs {
  double fd_on_alive_ns = 0;
  double membership_on_alive_ns = 0;
  double election_ns = 0;  // on_alive_payload + evaluate, per ALIVE
  std::size_t alives = 0;  // ALIVEs replayed (all passes)
};

/// Replays `stream` (captured at node `self`, member `pid` of `group`) until
/// at least `min_alives` ALIVEs went through, rebuilding the modules for
/// every pass.
layer_costs replay_stream(const std::vector<captured_datagram>& stream,
                          omega::node_id self, omega::process_id pid,
                          omega::group_id group, const omega::fd::qos_spec& qos,
                          std::size_t min_alives);

}  // namespace e2e
