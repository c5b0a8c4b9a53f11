// Hierarchy-aware QoS metrics: per-region trackers plus a cross-tier
// blame split of global-leader outages.
//
// The flat `group_metrics` answers "does the cluster have a leader" for one
// group. A tiered deployment needs two more views:
//
//   * per-region P_leader / T_r — each tier-0 region runs its own election,
//     and a region can be leaderless (or flapping) while the global tier is
//     perfectly healthy, and vice versa. One `group_metrics` per region,
//     fed with that region's ground truth and region-tier leader views,
//     makes fig11-style benches diagnostic per region.
//
//   * a blame split of global-leader outages. When the agreed global
//     leader crashes, recovery can come through two different paths:
//       - global re-election: another *established* global candidate (a
//         different region's promoted leader) wins — the outage is bounded
//         by global-tier detection + election;
//       - regional failover: the new agreed global leader comes out of the
//         crashed leader's own region — the vacancy had to wait for that
//         region to re-elect and promote a replacement up the chain, so
//         the regional failover is what bounded the outage.
//     Each closed outage is attributed to exactly one bucket, decided by
//     where the *resolving* leader came from: even when a global outage
//     spans a concurrent regional failover, the bucket is "global" if an
//     established foreign candidate ended it first. Outages whose old
//     leader did not crash or leave (agreement blips, voluntary demotions)
//     land in neither bucket: if the owner installed a fault oracle (the
//     harness does when a `fault_script` runs — see DESIGN.md §11) and the
//     oracle says an injected network fault overlapped the outage window,
//     the outage is blamed on the fault; otherwise it is unattributed.
//
// The tracker is deliberately topology-agnostic: the owner supplies a
// pid -> region mapping (the harness derives it from `hierarchy::topology`)
// and routes ground-truth lifecycle events and region-tier views here; the
// global tier's agreement transitions arrive from the global
// `group_metrics`'s agreement observer.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "metrics/group_metrics.hpp"

namespace omega::metrics {

class hierarchy_metrics {
 public:
  using region_of_fn = std::function<std::size_t(process_id)>;

  /// `regions` tier-0 regions; `region_of` maps any process the harness
  /// reports to its region index (must be < regions).
  hierarchy_metrics(std::size_t regions, region_of_fn region_of);

  /// Justified-demotion window, forwarded to every region tracker and used
  /// to decide whether a global outage was crash-caused (see group_metrics).
  void set_justification_window(duration window);

  /// Starts / stops metric accounting (forwarded to the region trackers).
  void begin(time_point start);
  void finish(time_point end);

  // ---- ground-truth lifecycle, routed to the pid's region tracker --------
  void on_join(time_point now, process_id pid);
  void on_leave(time_point now, process_id pid);
  void on_crash(time_point now, process_id pid);
  void on_recover(time_point now, process_id pid);

  /// `viewer`'s region-tier (tier 0) leader view changed.
  void on_region_view(time_point now, process_id viewer,
                      std::optional<process_id> leader);

  /// The agreed *global* leader changed (wire this to the global
  /// `group_metrics::set_agreement_observer`).
  void on_global_agreement(time_point now, std::optional<process_id> agreed);

  /// Forensics hook for injected network faults: `oracle(start, end)`
  /// answers "was an injected fault plausibly responsible for an agreement
  /// loss spanning [start, end]" (the harness derives it from the scenario's
  /// fault_script episode windows plus detection slack). When installed,
  /// demotions of a still-healthy leader inside a fault window are blamed
  /// on the fault instead of landing in the unattributed bucket.
  using fault_oracle_fn = std::function<bool(time_point, time_point)>;
  void set_fault_oracle(fault_oracle_fn oracle) {
    fault_oracle_ = std::move(oracle);
  }

  // ---- results ------------------------------------------------------------
  [[nodiscard]] std::size_t regions() const { return regions_.size(); }
  [[nodiscard]] const group_metrics& region(std::size_t r) const {
    return regions_.at(r);
  }

  /// Global-leader outages resolved by a promotion out of the crashed
  /// leader's own region (the regional failover bounded the vacancy).
  [[nodiscard]] std::uint64_t outages_blamed_regional() const {
    return blamed_regional_;
  }
  /// Global-leader outages resolved by an established candidate from a
  /// different region (pure global re-election).
  [[nodiscard]] std::uint64_t outages_blamed_global() const {
    return blamed_global_;
  }
  /// Global-leader outages of a still-healthy leader that the fault oracle
  /// attributed to an injected network fault (0 without an oracle).
  [[nodiscard]] std::uint64_t outages_blamed_fault() const {
    return blamed_fault_;
  }
  /// Agreement losses whose old leader neither crashed nor left and that no
  /// installed fault oracle claimed: in no blame bucket by construction.
  [[nodiscard]] std::uint64_t outages_unattributed() const {
    return unattributed_;
  }

 private:
  void classify(time_point now, process_id old_leader, process_id new_leader,
                duration outage);
  [[nodiscard]] bool recently_departed(process_id pid, time_point now) const;

  std::vector<group_metrics> regions_;
  region_of_fn region_of_;
  duration justification_window_ = sec(2);
  bool accounting_ = false;

  std::optional<process_id> global_leader_;
  std::optional<process_id> outage_victim_;  // open global outage, if any
  time_point outage_start_{};
  /// Set at event time when the current global leader (or open-outage
  /// victim) crashes/leaves, so a slow re-election is still attributed to
  /// the crash even past the justification window (same rationale as
  /// group_metrics's pending_prev_invalidated_).
  bool outage_victim_departed_ = false;
  std::unordered_map<process_id, time_point> last_departure_;

  std::uint64_t blamed_regional_ = 0;
  std::uint64_t blamed_global_ = 0;
  std::uint64_t blamed_fault_ = 0;
  std::uint64_t unattributed_ = 0;
  fault_oracle_fn fault_oracle_;
};

}  // namespace omega::metrics
