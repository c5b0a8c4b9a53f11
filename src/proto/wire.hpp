// Wire protocol of the leader-election service.
//
// Six datagram types, mirroring Figure 2 of the paper:
//   ALIVE      — heartbeat of the shared failure detector, carrying one
//                election payload per group the sender is active in and
//                shares with the receiver (the shared-FD architecture of
//                Deianov/Toueg amortizes one heartbeat stream over every
//                group and application). Each payload carries its own
//                heartbeat counter: a group's payload goes to that group's
//                members only, so loss is counted per (sender, group)
//                stream, not per datagram.
//   ACCUSE     — "I suspected you": drives the accusation-time mechanism of
//                the Omega_lc / Omega_l algorithms.
//   HELLO      — group membership announcement / periodic anti-entropy.
//   HELLO_ACK  — unicast membership snapshot sent back to a (re)joiner.
//   LEAVE      — voluntary group departure.
//   RATE_REQ   — failure-detector rate renegotiation: the monitor tells the
//                sender the heartbeat interval eta its QoS requires on this
//                link (output of the FD configurator, §3 of the paper).
//
// Every message carries the sender's incarnation; receivers drop state from
// older incarnations of the same node (a recovered workstation is a new
// member). All encodings are little-endian and bounds-checked on parse.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <variant>
#include <vector>

#include "common/causality.hpp"
#include "common/ids.hpp"
#include "common/serialization.hpp"
#include "common/time.hpp"
#include "net/shared_payload.hpp"

namespace omega::proto {

/// Election state for one group, piggybacked on an ALIVE message.
struct group_payload {
  group_id group;
  /// How many heartbeat ticks of this sender have carried this group's
  /// payload, this one included: the per-(sender, group) heartbeat
  /// counter. A tick sends the payload to every member of the group's
  /// table in the sender's view and to no one else, so a node that stays
  /// in that table sees every seq, and a gap is a lost datagram.
  std::uint64_t seq = 0;
  process_id pid;                 // sending process within this group
  bool candidate = false;         // willing to lead (join-time flag)
  bool competing = false;         // Omega_l: actively contending for leadership
  time_point accusation_time{};   // last time `pid` was (effectively) accused
  std::uint32_t phase = 0;        // Omega_l: competition epoch counter
  // Omega_lc stage-1 result, forwarded so peers can pick a global leader even
  // when their direct link to it is down:
  process_id local_leader = process_id::invalid();
  time_point local_leader_acc{};

  friend bool operator==(const group_payload&, const group_payload&) = default;
};

/// Node-level heartbeat: one send time and interval for every carried group
/// payload; each payload numbers its own stream (`group_payload::seq`).
struct alive_msg {
  node_id from;
  incarnation inc = 0;
  time_point send_time{};
  duration eta{};  // sender's current heartbeat interval
  std::vector<group_payload> groups;

  friend bool operator==(const alive_msg&, const alive_msg&) = default;
};

/// Sent by a monitor to the process it just started suspecting.
struct accuse_msg {
  node_id from;
  incarnation from_inc = 0;
  group_id group;
  process_id target;
  incarnation target_inc = 0;  // incarnation the accuser observed
  std::uint32_t phase = 0;     // phase of the last ALIVE the accuser saw
  time_point when{};           // accuser's time of the suspicion

  friend bool operator==(const accuse_msg&, const accuse_msg&) = default;
};

/// Membership announcement for all local processes. Broadcast on join and
/// periodically afterwards (anti-entropy against lost HELLOs and recoveries).
struct hello_msg {
  struct entry {
    group_id group;
    process_id pid;
    bool candidate = false;
    friend bool operator==(const entry&, const entry&) = default;
  };
  node_id from;
  incarnation inc = 0;
  bool reply_requested = false;  // initial join solicits a HELLO_ACK snapshot
  std::vector<entry> entries;

  friend bool operator==(const hello_msg&, const hello_msg&) = default;
};

/// Unicast membership snapshot (one entry per known (group, process)).
struct hello_ack_msg {
  struct entry {
    group_id group;
    process_id pid;
    node_id node;
    incarnation inc = 0;
    bool candidate = false;
    friend bool operator==(const entry&, const entry&) = default;
  };
  node_id from;
  incarnation inc = 0;
  std::vector<entry> entries;

  friend bool operator==(const hello_ack_msg&, const hello_ack_msg&) = default;
};

/// Voluntary departure of one process from one group.
struct leave_msg {
  node_id from;
  incarnation inc = 0;
  group_id group;
  process_id pid;

  friend bool operator==(const leave_msg&, const leave_msg&) = default;
};

/// FD rate renegotiation: "my QoS needs your heartbeats every `desired_eta`".
struct rate_request_msg {
  node_id from;
  incarnation inc = 0;
  duration desired_eta{};

  friend bool operator==(const rate_request_msg&, const rate_request_msg&) = default;
};

using wire_message = std::variant<alive_msg, accuse_msg, hello_msg,
                                  hello_ack_msg, leave_msg, rate_request_msg>;

/// Datagram type tags of the wire envelope (the byte after the version).
enum class msg_kind : std::uint8_t {
  alive = 1,
  accuse = 2,
  hello = 3,
  hello_ack = 4,
  leave = 5,
  rate_request = 6,
};

/// Baseline protocol version: `[ver u8][type u8][body]`.
inline constexpr std::uint8_t protocol_version = 1;
/// Causally stamped envelope (DESIGN.md §7): the (version, type) pair is
/// followed by a 16-byte cause id — `[origin u32][inc u32][seq u64]` —
/// naming the trace event that provoked this datagram, before the
/// unchanged body. Encoders emit it only for a valid cause, so a stack
/// with causal tracing off (or a spontaneous periodic send) produces
/// byte-identical version-1 datagrams; parsers accept both versions
/// unconditionally, which makes stamped and unstamped nodes wire-
/// compatible in either direction.
inline constexpr std::uint8_t protocol_version_stamped = 2;

/// Serializes `msg` with a (version, type) envelope; a valid `cause`
/// selects the stamped version-2 envelope.
[[nodiscard]] std::vector<std::byte> encode(const wire_message& msg,
                                            cause_id cause = {});

/// Serializes `msg` into a buffer recycled from `pool` and seals it into a
/// refcounted payload — the steady-state send path. Byte-for-byte identical
/// to `encode`.
[[nodiscard]] net::shared_payload encode_shared(const wire_message& msg,
                                                net::payload_pool& pool,
                                                cause_id cause = {});

/// Parses a datagram; returns nullopt on any malformed, truncated,
/// over-long or wrong-version input. A non-null `cause` receives the
/// version-2 envelope stamp (invalid for version-1 datagrams).
[[nodiscard]] std::optional<wire_message> decode(std::span<const std::byte> bytes,
                                                 cause_id* cause = nullptr);

/// Parses a datagram into `out`, reusing its storage: when `out` already
/// holds the incoming message kind — the steady-state case for a receive
/// scratch fed a stream of ALIVEs — the repeated-field vectors keep their
/// capacity, making the parse allocation-free. Accepts and rejects exactly
/// the same inputs as `decode`; on false, `out` is valid but unspecified.
[[nodiscard]] bool decode_into(wire_message& out, std::span<const std::byte> bytes,
                               cause_id* cause = nullptr);

/// Reads just the (version, type) envelope without decoding the body —
/// cheap enough for per-datagram traffic classification (bench taps).
/// Returns nullopt for truncated, wrong-version or unknown-type input.
[[nodiscard]] std::optional<msg_kind> peek_kind(std::span<const std::byte> bytes);

/// Envelope tag of a decoded message variant.
[[nodiscard]] msg_kind kind_of(const wire_message& msg);

/// Lower-case label of a message kind ("alive", "accuse", ...), for
/// metrics labels and traffic breakdowns.
[[nodiscard]] std::string_view to_string(msg_kind kind);

/// Sender node of any message variant.
[[nodiscard]] node_id sender_of(const wire_message& msg);
/// Sender incarnation of any message variant.
[[nodiscard]] incarnation incarnation_of(const wire_message& msg);

}  // namespace omega::proto
