// Failover forensics vocabulary: the latency budget of one leadership
// outage and the evidence rules that split it.
//
// An outage runs from the instant the old leader died (`start`) to the
// instant the cluster agreed on a live replacement (`end`).
// `causal_graph::attribute_outage` (obs/causal_graph.hpp) partitions that
// window into the three phases the paper's analysis distinguishes:
//
//   detection      start .. first suspicion of the victim anywhere
//   dissemination  first suspicion .. first election engagement (a survivor
//                  promotes, flips candidate, enters the omega_l
//                  competition, or locally elects a non-victim leader)
//   election       first engagement .. end (convergence of every observer)
//
// The phases tile the window by construction, so when both boundary events
// are found the attribution is exact (fraction = 1). Missing evidence —
// e.g. the ring wrapped past the suspicion, or the victim was not a leader
// so no re-election ran — leaves the corresponding phase unattributed and
// the fraction below 1; the acceptance gate in the harness tests requires
// >= 95%. This extends the coarse per-level blame split of
// `metrics/hierarchy_metrics.hpp` with per-outage, per-phase timing.
#pragma once

#include <optional>

#include "common/ids.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "obs/trace.hpp"

namespace omega::obs {

struct outage_budget {
  node_id victim = node_id::invalid();
  time_point start{};
  time_point end{};

  double detection_s = 0.0;
  double dissemination_s = 0.0;
  double election_s = 0.0;

  /// Which phase boundaries the trace actually evidenced.
  bool saw_detection = false;
  bool saw_engagement = false;

  [[nodiscard]] double window_s() const { return to_seconds(end - start); }
  /// Phases lacking boundary evidence are left at 0, so this is simply the
  /// evidenced part of the window.
  [[nodiscard]] double attributed_s() const {
    return detection_s + dissemination_s + election_s;
  }
  [[nodiscard]] double attributed_fraction() const {
    const double w = window_s();
    return w > 0.0 ? attributed_s() / w : 0.0;
  }
};

/// The two evidence predicates the attribution is built from.
///
/// Detection evidence: the event is direct FD/eviction evidence about the
/// victim (a suspicion of its node, an accusation naming it, its eviction).
[[nodiscard]] bool victim_evidence(const trace_event& ev, node_id victim_node,
                                   process_id victim_pid);
/// Election engagement: a survivor observably enters the succession race
/// (promotes, flips into candidacy, enters the competition, or locally
/// elects a live replacement — restricted to `resolved_leader` when known).
[[nodiscard]] bool election_engagement(
    const trace_event& ev, node_id victim_node, process_id victim_pid,
    const std::optional<process_id>& resolved_leader);

/// Aggregates budgets across the re-elections of one run.
struct forensics_summary {
  running_stats detection;
  running_stats dissemination;
  running_stats election;
  running_stats fraction;

  void add(const outage_budget& b) {
    detection.add(b.detection_s);
    dissemination.add(b.dissemination_s);
    election.add(b.election_s);
    fraction.add(b.attributed_fraction());
  }
};

}  // namespace omega::obs
