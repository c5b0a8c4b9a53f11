// Online NFD-S operating-point re-tuning (DESIGN.md §5).
//
// The paper's configurator answers "given the QoS bounds and the link,
// what is the *cheapest* operating point?" — it maximizes eta under the
// detection bound. That leaves measurable performance on the table when the
// link is good: with T^U_D fixed, the expected crash-detection latency of
// NFD-S is E[T_D] ~ delta + eta/2, so a smaller feasible delta means
// strictly faster detection at the same heartbeat rate.
//
// The retuner therefore solves one of two objectives, chosen by the group's
// *QoS class* (`qos_class`):
//
//   interactive — minimize expected detection latency delta + eta/2 subject
//                 to the same mistake-recurrence and accuracy constraints,
//                 the detection bound eta + delta <= T^U_D, and a heartbeat
//                 *rate budget* eta >= T^U_D / 4 (the cold-start rate), so
//                 adapting never sends faster than the static configuration
//                 it replaces. When no point within the budget holds the QoS
//                 (the link degraded beyond what the budget can monitor),
//                 eta stays at the budget, delta stretches to the rest of
//                 the detection window (the best recurrence the budget
//                 buys) and the point is marked infeasible, mirroring the
//                 paper's best-effort caveat. The sending rate is therefore
//                 provably capped, which also stops transient estimate
//                 spikes from pinning peers to a fast rate through the 60 s
//                 RATE_REQ expiry.
//   background  — minimize heartbeat rate: the paper's cheapest-point solver
//                 (fd::configure), largest eta with delta = T^U_D - eta
//                 meeting E[T_MR] and P_A.
//
// Both solve a link estimate rounded up (conservatively) onto a coarse
// grid, so the solved point is piecewise constant in the raw estimates:
// per-heartbeat estimator jitter lands in the same cell and produces
// bit-identical parameters, and the dead band and dwell timer only ever see
// *real* link changes.
//
// One retuner instance serves one group and keeps *per-link* damping
// state: the group-level point is solved from the tracker's robust
// cluster aggregate (the group default in the FD's group record), and each
// peer with a confident tracked window gets its own independently damped
// operating point (a per-remote refinement there), so a clean LAN link
// never inherits a WAN link's delta.
//
// Stability: re-solving every estimator tick would let estimate jitter
// oscillate (eta, delta) and thrash the cluster with RATE_REQ renegotiation.
// Two dampers make the retuner provably calm:
//
//   * hysteresis dead band — a candidate point replaces the current one
//     only if eta or delta moved by more than a relative band (or the
//     feasibility verdict flipped);
//   * min-dwell — once adopted, an operating point is held for at least
//     `kMinDwell`, bounding the retune rate to one per dwell window no
//     matter how noisy the estimates are.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "fd/configurator.hpp"
#include "fd/qos.hpp"

namespace omega::adaptive {

/// Per-group service class: what the group's retuner optimizes for once
/// the QoS constraints hold.
enum class qos_class {
  /// Minimize expected detection latency delta + eta/2 (leader handover
  /// speed matters more than traffic).
  interactive,
  /// Minimize heartbeat rate (largest feasible eta): monitoring cost
  /// matters more than detection slack inside the T^U_D bound.
  background,
};

[[nodiscard]] std::string_view to_string(qos_class cls);

class retuner {
 public:
  /// Minimum time between two adopted retunes.
  static constexpr duration kMinDwell = sec(10);
  /// Relative dead band on eta and delta: candidate points inside the band
  /// do not replace the current one — unless the current point stopped
  /// satisfying the QoS under the latest estimate (a stale point is never
  /// kept for calm's sake).
  static constexpr double kEtaBand = 0.20;
  static constexpr double kDeltaBand = 0.20;
  /// Grid resolution of the min-detection search: eta values tried between
  /// the budget and T^U_D / 2 (expected detection delta + eta/2 only grows
  /// with eta once the loss-driven delta >= (k-1)*eta dominates, so larger
  /// eta never wins), delta values tried per eta.
  static constexpr int kEtaSteps = 16;
  static constexpr int kDeltaSteps = 100;
  /// Schmitt trigger on QoS feasibility. New points are solved with a
  /// stricter margin (`kAdoptMargin` > 1 scales the recurrence/accuracy
  /// requirements up), while the current point is only declared stale when
  /// it misses the *relaxed* requirement (`kKeepMargin` < 1). A point that
  /// was adopted with margin therefore cannot be invalidated by estimate
  /// jitter around the exact constraint boundary.
  static constexpr double kAdoptMargin = 1.25;
  static constexpr double kKeepMargin = 0.8;

  /// `cls` selects the solving objective (see the header comment).
  explicit retuner(fd::qos_spec qos, qos_class cls = qos_class::interactive);

  /// Pure solver (no hysteresis state): the operating point the class's
  /// objective picks for `link`. Falls back to `fd::cold_start_params`
  /// below the configurator's sample floor, exactly like `fd::configure`.
  [[nodiscard]] static fd::fd_params solve(
      const fd::qos_spec& qos, const fd::link_estimate& link,
      qos_class cls = qos_class::interactive);

  /// Does `params` satisfy the recurrence and accuracy constraints of
  /// `qos` under `link` (quantized like the solver's input), scaled by
  /// `margin` (> 1 stricter, < 1 more lenient)? True when the estimate has
  /// too few samples to judge.
  [[nodiscard]] static bool point_feasible(const fd::qos_spec& qos,
                                           const fd::link_estimate& link,
                                           const fd::fd_params& params,
                                           double margin = 1.0);

  /// One damped *group-level* re-tuning step at time `now`: solves for
  /// `link` (the cluster aggregate) and returns the new operating point iff
  /// it clears the dwell gate and moved outside the dead band (or
  /// feasibility flipped). Returns nullopt when the current point stands.
  [[nodiscard]] std::optional<fd::fd_params> evaluate(
      const fd::link_estimate& link, time_point now);

  /// Same damped step for one peer's own tracked link window. Each peer
  /// carries independent damping state (dwell timer, dead band anchor), so
  /// a WAN link re-tuning does not consume the LAN links' dwell windows.
  [[nodiscard]] std::optional<fd::fd_params> evaluate_peer(
      node_id peer, const fd::link_estimate& link, time_point now);

  /// Drops the per-peer damping state (peer left, or its window went
  /// stale and the group default applies again).
  void forget_peer(node_id peer);
  [[nodiscard]] bool has_peer(node_id peer) const {
    return peers_.find(peer) != peers_.end();
  }

  /// Group-level current point (the FD group record's default).
  [[nodiscard]] const fd::fd_params& current() const { return group_.current; }
  /// Per-peer current point; falls back to the group-level point when the
  /// peer has no refinement.
  [[nodiscard]] const fd::fd_params& current(node_id peer) const;
  /// Operating-point adoptions, group-level and per-peer combined.
  [[nodiscard]] std::uint64_t retune_count() const { return retune_count_; }
  [[nodiscard]] time_point last_retune() const { return group_.last_retune; }
  [[nodiscard]] const fd::qos_spec& qos() const { return qos_; }
  [[nodiscard]] qos_class service_class() const { return class_; }

  /// Expected crash-detection latency of an operating point under NFD-S
  /// (crash uniformly within a send interval): delta + eta / 2.
  [[nodiscard]] static double expected_detection_s(const fd::fd_params& p) {
    return to_seconds(p.delta) + to_seconds(p.eta) / 2.0;
  }

 private:
  /// Damping state of one operating point (the group default, or one
  /// per-peer refinement): hysteresis anchor + dwell timer.
  struct damped_state {
    fd::fd_params current;
    bool adopted_once = false;
    time_point last_retune{};
  };

  [[nodiscard]] std::optional<fd::fd_params> evaluate_damped(
      damped_state& state, const fd::link_estimate& link, time_point now);

  fd::qos_spec qos_;
  qos_class class_;
  damped_state group_;
  std::unordered_map<node_id, damped_state> peers_;
  std::uint64_t retune_count_ = 0;
};

}  // namespace omega::adaptive
