// Scriptable network fault plane layered on `sim_network` (ISSUE 10).
//
// The base simulator models the paper's two fault classes (symmetric loss,
// link crash/recovery). Real deployments misbehave in richer ways, and the
// protocol claims (stable leadership, bounded detection, no stale
// resurrection) need to survive them. The adversary expresses five fault
// classes, all deterministic for a fixed seed + script:
//
//   * one-way cuts      — drop every datagram A -> B while B -> A flows;
//   * named partitions  — a node set is severed from the rest in *both*
//                         directions; partitions are named so scripts can
//                         heal them individually, and multiple partitions
//                         compose (a datagram dies if any active partition
//                         separates its endpoints);
//   * flapping links    — a directed link alternates up/down on a strict
//                         duty cycle (period, up-fraction, phase), evaluated
//                         arithmetically from the virtual clock: no timers,
//                         no RNG, so a flap schedule is exactly reproducible;
//   * duplication +     — admitted datagrams are duplicated (bounded k extra
//     reordering          copies of the *same* refcounted buffer, so the
//                         zero-copy property holds) and/or reordered by a
//                         deterministic permutation window: within every
//                         window of W consecutive datagrams on a directed
//                         link, delivery delays are inflated to reverse the
//                         send order. Per-kind delay inflation (keyed on
//                         `proto::peek_kind`) lets scripts slow one message
//                         type (e.g. ALIVEs crawl while ACCUSEs sprint);
//   * clock skew/drift  — not the adversary's business: injected through the
//                         `clock_source` seam by the harness
//                         (`harness::skewed_clock`), because clocks belong
//                         to nodes, not to the network.
//
// Contract with `sim_network`: when no adversary is installed the hot path
// is byte-identical to the pre-adversary simulator (guarded by the golden
// trace fingerprints); when one is installed, only the three hook points
// (`should_drop`, `extra_delay`, `plan_duplicates`) run, and only the
// adversary's private RNG stream draws — base link streams are untouched.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "common/random.hpp"
#include "common/time.hpp"
#include "proto/wire.hpp"

namespace omega::net {

/// Duty cycle of a flapping directed link. The link is up during the first
/// `up_fraction` of every `period`, starting `phase` into the cycle;
/// evaluated as pure arithmetic on the virtual clock.
struct flap_spec {
  duration period = sec(10);
  double up_fraction = 0.5;  // clamped to [0, 1]
  duration phase{};

  friend bool operator==(const flap_spec&, const flap_spec&) = default;
};

/// Bounded at-least-once duplication: each admitted datagram is duplicated
/// with `probability`; a duplicated datagram gains 1..`max_copies` extra
/// deliveries, each delayed by an extra uniform(0, spread] on top of the
/// link's sampled transit time.
struct duplicate_spec {
  double probability = 0.0;
  std::size_t max_copies = 1;
  duration spread = msec(5);

  friend bool operator==(const duplicate_spec&, const duplicate_spec&) = default;
};

/// Deterministic permutation-window reordering: the i-th datagram of every
/// window of `window` consecutive datagrams on a directed link gets
/// `(window - 1 - i) * spacing` extra delay, reversing the window's send
/// order when `spacing` dominates the link's own jitter.
struct reorder_spec {
  std::size_t window = 0;  // 0 or 1 = off
  duration spacing = msec(2);

  friend bool operator==(const reorder_spec&, const reorder_spec&) = default;
};

class adversary {
 public:
  /// Hard bound on extra deliveries per datagram (keeps the stack buffer in
  /// `sim_network::on_send` fixed-size).
  static constexpr std::size_t max_duplicate_copies = 8;

  /// All stochastic choices (duplication coin flips, duplicate spreads)
  /// come from this private stream, so installing an adversary never
  /// perturbs the base network's draws.
  explicit adversary(rng stream) : rng_(stream) {}

  // ---- one-way cuts ------------------------------------------------------
  void cut_link(node_id from, node_id to);
  void heal_link(node_id from, node_id to);
  [[nodiscard]] bool link_cut(node_id from, node_id to) const;

  // ---- named partitions --------------------------------------------------
  /// Severs `members` from every node outside the set, both directions.
  /// Re-declaring an active name replaces its member set.
  void partition(std::string name, std::vector<node_id> members);
  /// Heals one named partition; returns false if no such partition.
  bool heal_partition(std::string_view name);
  void heal_all_partitions();
  [[nodiscard]] std::size_t active_partitions() const { return partitions_.size(); }
  /// True when some active partition separates `a` and `b`.
  [[nodiscard]] bool partitioned(node_id a, node_id b) const;

  // ---- flapping ----------------------------------------------------------
  void flap_link(node_id from, node_id to, flap_spec spec);
  void stop_flap(node_id from, node_id to);
  /// Duty-cycle verdict for a flapping link at `now`; true (up) for links
  /// with no flap installed.
  [[nodiscard]] bool flap_up(node_id from, node_id to, time_point now) const;

  // ---- duplication / reordering / per-kind delay -------------------------
  void set_duplication(duplicate_spec spec) { dup_ = spec; }
  void clear_duplication() { dup_ = duplicate_spec{}; }
  void set_reorder(reorder_spec spec) { reorder_ = spec; }
  void clear_reorder() { reorder_ = reorder_spec{}; }
  void set_kind_delay(proto::msg_kind kind, duration extra);
  void clear_kind_delay(proto::msg_kind kind);
  void clear_kind_delays();

  // ---- hooks called by sim_network (hot path) ----------------------------
  /// Drop verdict for one datagram about to transit `from -> to`. Counts
  /// the drop against the first matching fault class (cut, then partition,
  /// then flap).
  [[nodiscard]] bool should_drop(node_id from, node_id to, time_point now);
  /// Extra delivery delay for one admitted datagram: per-kind inflation
  /// plus the reorder window's deterministic slot delay.
  [[nodiscard]] duration extra_delay(node_id from, node_id to,
                                     std::span<const std::byte> payload);
  /// Plans the extra deliveries of one admitted datagram. Fills
  /// `extra_delays` (capacity `max_duplicate_copies`) with the additional
  /// delay of each duplicate and returns how many were planned (0 = none).
  [[nodiscard]] std::size_t plan_duplicates(duration* extra_delays);

  /// Per-fault-class totals since construction, for the obs export and the
  /// fault-injection assertions of the test battery.
  struct counters {
    std::uint64_t dropped_cut = 0;
    std::uint64_t dropped_partition = 0;
    std::uint64_t dropped_flap = 0;
    std::uint64_t duplicated = 0;        // extra deliveries scheduled
    std::uint64_t reorder_delayed = 0;   // datagrams with a reorder slot delay
    std::uint64_t kind_delayed = 0;      // datagrams with per-kind inflation
  };
  [[nodiscard]] const counters& totals() const { return counters_; }

 private:
  struct partition_state {
    std::string name;
    std::unordered_set<std::uint32_t> members;
  };

  static std::uint64_t link_key(node_id from, node_id to) {
    return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
  }
  static bool duty_up(const flap_spec& spec, time_point now);
  /// kind_delay_ slot of a wire kind, or npos for unmapped kinds.
  static std::size_t kind_slot(proto::msg_kind kind) {
    const auto v = static_cast<std::size_t>(kind);
    return v < kind_slots ? v : kind_slots;
  }

  static constexpr std::size_t kind_slots = 8;

  std::unordered_set<std::uint64_t> cuts_;
  std::vector<partition_state> partitions_;
  std::unordered_map<std::uint64_t, flap_spec> flaps_;
  duplicate_spec dup_{};
  reorder_spec reorder_{};
  /// Per-directed-link datagram counter driving the permutation windows.
  std::unordered_map<std::uint64_t, std::uint64_t> reorder_pos_;
  std::array<duration, kind_slots + 1> kind_delay_{};  // +1: dead slot for unmapped
  bool any_kind_delay_ = false;
  rng rng_;
  counters counters_;
};

}  // namespace omega::net
