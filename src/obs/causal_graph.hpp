// Causal reconstruction of a failover from per-node trace rings alone.
//
// The sink's causal plane (obs/sink.hpp) gives every trace event a
// `cause_id` naming the local or remote event that provoked it; this module
// stitches the concatenated rings of any number of nodes into one DAG by
// resolving those ids — (origin node, seq) is a coordination-free unique
// key, so the reconstruction needs **no global clock**. That is the whole
// point: the same code attributes a failover on the simulator's virtual
// timeline and on a real-UDP multi-process run where each engine has its
// own epoch and only a monotonic wall clock (if that) is shared.
//
//   * `build` indexes events and resolves cause pointers. An id whose
//     target is absent (overwritten by ring wraparound) is counted as
//     *dangling*, not silently treated as a root.
//   * `linkage` answers the forensics question "how much of the failover
//     is explained": the fraction of causally potent events in the outage
//     window that are — or transitively descend from — root-cause evidence
//     about the victim (a suspicion of its node, an accusation naming it).
//   * `attribute_outage` splits an outage window into the phases of
//     obs/forensics.hpp. The engagement boundary prefers events the DAG
//     actually links to the victim evidence; on a trace without cause
//     stamps nothing links and it is simply the earliest engagement in the
//     window. The whole attribution can run on the wall-clock timeline
//     (`timeline::wall`) where sim time is meaningless.
//   * `wall_skew_violations` sanity-checks the dual timestamps (satellite:
//     DAG edges vs. wall-clock skew): causality can never run backwards on
//     a shared monotonic clock, so a child with an earlier wall stamp than
//     its parent exposes clock skew (or a bogus stamp) immediately.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "obs/forensics.hpp"
#include "obs/trace.hpp"

namespace omega::obs {

class causal_graph {
 public:
  /// Which timestamp orders and windows events: the shared sim clock
  /// (`ev.at`) or the monotonic wall clock (`ev.wall_us`; events without a
  /// wall stamp are excluded from windowed queries on this timeline).
  enum class timeline : std::uint8_t { sim, wall };

  /// Builds the DAG from the concatenation of per-node rings, any order.
  [[nodiscard]] static causal_graph build(std::span<const trace_event> events);

  struct linkage_report {
    /// Causally potent events inside the window (retunes and drop
    /// accounting are causally inert bookkeeping and not counted).
    std::size_t considered = 0;
    /// Of those: events anchored — directly or transitively — at
    /// root-cause evidence about the victim.
    std::size_t linked = 0;
    /// Root-cause evidence events found in the window.
    std::size_t evidence_roots = 0;
    /// Events whose cause id did not resolve (ring wraparound).
    std::size_t dangling = 0;

    [[nodiscard]] double fraction() const {
      return considered > 0
                 ? static_cast<double>(linked) / static_cast<double>(considered)
                 : 0.0;
    }
  };

  /// How much of the outage window (start, end] the DAG explains (the
  /// harness acceptance gate requires >= 95% of events linked).
  [[nodiscard]] linkage_report linkage(node_id victim_node,
                                       process_id victim_pid, time_point start,
                                       time_point end,
                                       timeline tl = timeline::sim) const;

  /// Attributes the outage window (start, end] to the three phases of
  /// obs/forensics.hpp. Detection ends at the earliest victim evidence on
  /// any node; the engagement boundary is the earliest engagement *linked
  /// to the victim evidence*, falling back to the earliest engagement in
  /// the window when none is linked (stamping off, rings wrapped).
  /// `resolved_leader`, when known, restricts the leader_change evidence to
  /// the leader that won. On `timeline::wall`, start/end and the budget's
  /// time points live on the wall clock (time_point{usec(wall_us)}).
  [[nodiscard]] outage_budget attribute_outage(
      node_id victim_node, process_id victim_pid, time_point start,
      time_point end, std::optional<process_id> resolved_leader = std::nullopt,
      timeline tl = timeline::sim) const;

  /// Resolved parent→child edges where the child's wall stamp precedes the
  /// parent's: impossible under causality on one shared monotonic clock,
  /// so nonzero means skewed clocks or corrupted stamps. Edges lacking a
  /// wall stamp on either end are skipped.
  [[nodiscard]] std::size_t wall_skew_violations() const;

  // ---- introspection -------------------------------------------------------

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const trace_event& event(std::size_t i) const {
    return events_[i];
  }
  /// Index of the resolved cause of event `i`, or -1 (root or dangling).
  [[nodiscard]] int cause_index(std::size_t i) const { return cause_[i]; }
  /// True when event `i` carried a cause id that failed to resolve.
  [[nodiscard]] bool is_dangling(std::size_t i) const { return dangling_[i]; }

 private:
  /// Event time on the chosen timeline; nullopt = not on this timeline.
  [[nodiscard]] std::optional<time_point> at_on(const trace_event& ev,
                                                timeline tl) const;
  /// Memoized "is or descends from victim evidence" over the whole graph.
  [[nodiscard]] std::vector<char> anchor_victim_evidence(
      node_id victim_node, process_id victim_pid) const;

  std::vector<trace_event> events_;
  std::vector<int> cause_;      // resolved cause index, -1 = root/dangling
  std::vector<char> dangling_;  // had a cause id that did not resolve
};

}  // namespace omega::obs
