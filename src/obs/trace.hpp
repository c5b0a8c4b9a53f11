// Structured event tracing of the observability plane (DESIGN.md §7).
//
// Every interesting state transition of the protocol stack — leader
// changes, FD suspicions, accusations, candidacy flips, membership churn,
// hierarchy promotions, retune adoptions — is recorded as one typed
// `trace_event` stamped with sim-or-real time, the recording node, the
// group and (when the hierarchy annotated it) the tier. Recorders are
// pluggable:
//
//   * `null_recorder` / no recorder at all — the default. Instrumented hot
//     paths guard on a single pointer, so a deployment that never attaches
//     observability pays one predictable branch per event site.
//   * `ring_recorder` — a bounded ring buffer. Old events are overwritten,
//     never reallocated: tracing a 500-node simulated cluster costs a fixed
//     few tens of KB per node no matter how long the run. Each event gets a
//     per-recorder sequence number, so wraparound never loses ordering and
//     the dropped-event count is exact.
//
// The failover forensics (obs/causal_graph.hpp, with the phase rules of
// obs/forensics.hpp) replay the merged multi-node event stream around a
// leadership outage; obs/exposition.hpp dumps rings as JSONL for offline
// tooling.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/causality.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"

namespace omega::obs {

/// Event taxonomy. `subject` / `peer` / `value` semantics per kind are
/// documented inline; unset id fields stay invalid().
enum class event_kind : std::uint8_t {
  leader_change,        // subject = new leader (invalid = leaderless)
  suspicion_raised,     // peer = suspected node, value = s since its last HB
  suspicion_cleared,    // peer = re-trusted node
  accusation_sent,      // subject = accused pid, peer = accused node
  accusation_received,  // subject = accused (local) pid, peer = accuser node
  candidacy_flip,       // subject = local pid, value = 1 candidate / 0 not
  competition_enter,    // omega_l: subject starts competing (value = phase)
  competition_withdraw, // omega_l: subject stops competing (value = phase)
  member_join,          // subject joined group (peer = hosting node)
  member_leave,         // subject left group voluntarily
  member_evicted,       // subject evicted after silence
  promotion,            // hierarchy: subject promoted into this tier's race
  demotion,             // hierarchy: subject withdrew from this tier's race
  retune,               // adaptive: new operating point (value = eta seconds;
                        // peer set = per-link refinement, unset = group default)
  unknown_group_drop,   // datagram for an unknown/stale group (peer = sender)
  unknown_peer_drop,    // datagram from an address outside the roster
                        // (transport-level; value = datagram bytes)
};

[[nodiscard]] std::string_view to_string(event_kind kind);

struct trace_event {
  event_kind kind{};
  time_point at{};
  /// The node whose recorder captured the event (stamped by the sink).
  node_id node = node_id::invalid();
  group_id group = group_id::invalid();
  /// Hierarchy tier of `group`, -1 when unannotated / not hierarchical.
  std::int32_t tier = -1;
  process_id subject = process_id::invalid();
  node_id peer = node_id::invalid();
  double value = 0.0;
  /// Per-recorder sequence number (assigned by the recorder; total order
  /// of one node's events even across ring wraparound).
  std::uint64_t seq = 0;
  /// Causal provenance (sink-stamped when causal tracing is enabled): the
  /// local or remote event that provoked this one. Invalid for roots —
  /// spontaneous activity like periodic timers — and whenever causal
  /// tracing is off, in which case the JSONL exposition omits the field
  /// entirely (the golden-trace guard depends on that).
  cause_id cause{};
  /// Monotonic wall-clock stamp in microseconds, when a real-time source
  /// is active (sink::set_wall_clock); -1 = no wall source. Raw
  /// CLOCK_MONOTONIC, comparable across engines/processes on one host —
  /// the cross-node DAG edges sanity-check against it.
  std::int64_t wall_us = -1;
};

class trace_recorder {
 public:
  virtual ~trace_recorder() = default;
  /// Records the event and returns the sequence number it was assigned —
  /// the number a `cause_id` naming this event must carry.
  virtual std::uint64_t record(const trace_event& ev) = 0;
};

/// Swallows everything; for explicitly disabling tracing where a recorder
/// reference is required.
class null_recorder final : public trace_recorder {
 public:
  std::uint64_t record(const trace_event&) override { return 0; }
};

/// Bounded ring buffer of the most recent `capacity` events.
class ring_recorder final : public trace_recorder {
 public:
  explicit ring_recorder(std::size_t capacity);

  std::uint64_t record(const trace_event& ev) override;

  /// Retained events, oldest to newest (seq ascending).
  [[nodiscard]] std::vector<trace_event> events() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events ever recorded (sequence numbers keep counting across clear()).
  [[nodiscard]] std::uint64_t recorded() const { return next_seq_; }
  /// Events overwritten by wraparound.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void clear();

 private:
  std::size_t capacity_;
  std::vector<trace_event> ring_;
  /// Slot the next wraparound write lands in (= the oldest retained event
  /// once the ring has filled).
  std::size_t write_pos_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace omega::obs
