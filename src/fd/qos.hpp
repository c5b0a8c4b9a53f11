// QoS vocabulary of the Chen-Toueg-Aguilera failure detector [5].
//
// An application that monitors a process specifies three bounds
// (paper §3): T^U_D (detection time), T^L_MR (mean time between FD
// mistakes) and P^L_A (probability the FD is correct at a random time).
// The configurator translates these, together with the current link
// quality (p_L, E[D], S[D]), into the two operational parameters of the
// NFD-S algorithm: the heartbeat interval eta and the freshness shift delta.
// It models the delay tail as exponential, the distribution of the paper's
// evaluation (§6.1).
#pragma once

#include <cstddef>

#include "common/time.hpp"

namespace omega::fd {

/// Application-facing QoS requirement for monitoring one process.
struct qos_spec {
  /// T^U_D: upper bound on crash-detection time.
  duration detection_time = sec(1);
  /// T^L_MR: lower bound on the expected time between two FD mistakes.
  duration mistake_recurrence = std::chrono::duration_cast<duration>(
      std::chrono::hours(24 * 100));
  /// P^L_A: lower bound on the query accuracy probability.
  double query_accuracy = 0.99999988;

  /// The default used by almost all experiments in the paper (§6.1):
  /// detect within 1 s, at most one mistake per 100 days per monitored
  /// process, accuracy 0.99999988.
  static qos_spec paper_default() { return {}; }

  friend bool operator==(const qos_spec&, const qos_spec&) = default;
};

/// Output of the configurator: NFD-S operating point.
struct fd_params {
  /// Heartbeat sending interval (the paper's eta).
  duration eta;
  /// Freshness-point shift: a heartbeat sent at s is "fresh" until
  /// s + eta + delta (the paper's delta timeout).
  duration delta;
  /// True when the QoS is predicted to hold under the current link
  /// estimate; false when the returned point is only the best effort.
  bool qos_feasible = true;

  friend bool operator==(const fd_params&, const fd_params&) = default;
};

/// Current estimate of one directed link's behaviour, produced by the
/// link-quality estimator from the received heartbeat stream.
struct link_estimate {
  double loss_probability = 0.01;  // p_L
  duration delay_mean = msec(1);   // E[D]
  duration delay_stddev = msec(1); // sqrt(V[D])
  std::size_t samples = 0;         // heartbeats the estimate is based on

  friend bool operator==(const link_estimate&, const link_estimate&) = default;
};

}  // namespace omega::fd
