// Failover and percentile arithmetic over leader-change logs.
//
// The live workloads never poll for agreement. Every service stamps each of
// its leader changes (steady clock, on its loop thread) into its group's
// log, next to the kill and restart entries the driver writes on the same
// thread; this module replays such a log after the run.
//
// Availability (P_leader), unjustified changes and the final agreed leader
// come from `metrics::group_metrics`, the ground-truth tracker the
// simulator workload reads too, fed with the log (`replay_group_metrics`).
// What is left here is per kill:
//
//   failover    from the kill until every surviving member (live, other than
//               the victim) holds the same leader X, where X is not the victim
//               unless the victim has been restarted since. X must be live
//               and must not be the victim: either is a broken output;
//   detection   from the kill until the first survivor's view leaves the victim.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics/group_metrics.hpp"

namespace e2e {

/// Nearest-rank percentile (q in (0, 1]) of `samples`; NaN when empty.
double percentile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Arithmetic mean of `samples`; NaN when empty.
inline double mean(const std::vector<double>& samples) {
  double sum = 0;
  for (const double v : samples) sum += v;
  return samples.empty() ? std::nan("") : sum / static_cast<double>(samples.size());
}

/// Samples ranked after the nearest-rank q-percentile of n samples.
std::size_t ranked_beyond(std::size_t n, double q);

/// One entry of a group's log, stamped on the thread that owns the group.
struct log_event {
  enum class kind : std::uint8_t { view, down, up };
  std::int64_t t_ns = 0;
  kind what = kind::view;
  /// Process id of the member the entry is about.
  std::uint32_t member = 0;
  /// View entries: the member's new leader, -1 = leaderless.
  std::int64_t leader = -1;
};

/// One slot of a group's open-loop kill schedule.
struct kill_record {
  std::int64_t due_ns = 0;   // when the schedule wanted the kill
  std::int64_t at_ns = 0;    // when it ran (the victim's `down` entry)
  std::int64_t victim = -1;  // -1: the group had no agreed leader when due
};

struct failover {
  std::int64_t kill_ns = 0;
  std::int64_t victim = -1;
  std::int64_t detect_ns = -1;  // first survivor view leaving the victim
  std::int64_t end_ns = -1;     // survivors agree on the successor
  std::int64_t successor = -1;
  std::uint32_t changes = 0;    // survivor view changes in (kill, end]
  [[nodiscard]] bool completed() const { return end_ns >= 0; }
};

struct failover_report {
  std::vector<failover> failovers;  // one per kill that found a victim
  std::vector<std::string> errors;  // broken output checks
};

/// Replays one group's log (ordered by time) against its kill schedule
/// (ordered by `at_ns`).
failover_report analyse_failovers(const std::vector<log_event>& log,
                                  const std::vector<kill_record>& kills);

/// `metrics::group_metrics` fed with one group's log: `up` is a join (a
/// recovery plus a join after a `down`), `down` a crash, `view` a leader
/// view. Accounting runs over [window_from_ns, window_to_ns); the tracker
/// keeps following the log after the window, so its agreed leader is the
/// one after the last entry.
struct group_truth {
  omega::metrics::group_metrics metrics;
  /// Restart to the next agreement (the restarted member then holds the
  /// agreed leader), for restarts inside the window.
  std::vector<std::int64_t> rejoin_ns;
};
group_truth replay_group_metrics(const std::vector<log_event>& log,
                                 std::int64_t window_from_ns,
                                 std::int64_t window_to_ns,
                                 std::int64_t justification_ns);

/// Failover statistics over many kills.
struct failover_summary {
  std::size_t scheduled = 0;  // kill slots that fell due
  std::size_t completed = 0;
  std::size_t ok = 0;         // completed within the bound
  std::vector<double> failover_ms;  // completed failovers
  std::vector<double> detect_ms;    // where a detection was seen
  std::vector<double> converge_ms;  // detection -> agreement
  std::vector<double> changes;      // survivor view changes per failover
};

/// `scheduled` counts every kill slot, including those that found no agreed
/// leader (which therefore count as failed). A failover is ok when it
/// completed within `ok_bound_ns` of its kill.
failover_summary summarise(const std::vector<failover>& failovers,
                           std::size_t scheduled, std::int64_t ok_bound_ns);

}  // namespace e2e
