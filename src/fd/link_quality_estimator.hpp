// Link Quality Estimator (paper §3, Figure 1).
//
// Continuously estimates the quality of the directed link from a monitored
// process q to the local process p, using only the ALIVE messages p
// receives from q:
//   * message-loss probability p_L — from gaps in q's per-group heartbeat
//     counters (`proto::group_payload::seq`; q sends an ALIVE only to the
//     members of the groups it carries), each (q, group) stream filling
//     its own fixed-size epochs, all folded into one EWMA. The estimate is
//     floored at ~1/(2*window): a finite sample can never certify a lower
//     loss rate, and the floor is what makes the configurator keep a safety
//     margin on clean LANs.
//   * delay mean E[D] and standard deviation S[D] — from the difference
//     between the embedded send timestamp and the local receive time over a
//     sliding window. (Simulation clocks are perfectly synchronized; the
//     real-time runtime relies on NTP-grade sync exactly like the paper's
//     LAN testbed.)
//
// For deployments without synchronized clocks, the estimator has a
// *skew-tolerant* mode (Chen et al.'s NFD-E idea): raw `received - sent`
// differences are offset by an unknown constant (clock skew), so the mode
// re-bases every sample against the smallest difference seen in the window
// — the sample that experienced the least queuing. The re-based values
// estimate delay *jitter above the minimum*; the unknown propagation floor
// is invisible to any clock-free scheme, which only makes the (eta, delta)
// choice slightly conservative. Loss estimation is unaffected (sequence
// numbers carry no time).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "fd/qos.hpp"

namespace omega::fd {

class link_quality_estimator {
 public:
  struct options {
    std::size_t delay_window = 256;   // samples kept for E[D], S[D]
    std::size_t loss_epoch = 128;     // heartbeats per stream per epoch
    double loss_ewma_alpha = 0.3;     // weight of the newest epoch
    double loss_floor = 0.5 / 256.0;  // cannot certify loss below this
    /// True (default): sender and receiver clocks are comparable, delays
    /// are measured absolutely. False: skew-tolerant mode — delays are
    /// measured relative to the window's minimum difference (see header).
    bool synchronized_clocks = true;
    /// Online tail-shape estimation (ISSUE 10 satellite): classify the
    /// delay tail from the window's excess kurtosis instead of hardwiring
    /// the exponential assumption. An exponential's excess kurtosis is 6;
    /// windows decisively above `pareto_kurtosis_threshold` are flagged
    /// `delay_tail_model::pareto` in the estimate (a Pareto tail with
    /// alpha <= 4 has a divergent fourth moment, so its empirical kurtosis
    /// runs away as the window fills). The verdict is a *hint*: it only
    /// changes FD behaviour when `configurator_options::auto_tail` is on.
    bool estimate_tail = true;
    double pareto_kurtosis_threshold = 12.0;
    /// Below this many delay samples the kurtosis is too noisy to call
    /// anything non-exponential.
    std::size_t tail_min_samples = 64;
  };

  link_quality_estimator() : link_quality_estimator(options{}) {}
  explicit link_quality_estimator(options opts);

  /// Feeds the delay sample of one received ALIVE (once per datagram,
  /// whatever groups it carries).
  void on_heartbeat(time_point sent, time_point received);

  /// Feeds heartbeat number `seq` of `stream`, the sender's counter of one
  /// group's payloads. Reordered numbers are tolerated (reordering shrinks
  /// the apparent gap; duplicates cannot occur because each number is sent
  /// exactly once).
  void on_sequence(group_id stream, std::uint64_t seq);

  /// Forgets one stream's open epoch (its group stopped monitoring the
  /// sender), so a stream that resumes later opens a fresh epoch.
  void drop_stream(group_id stream);

  /// Forgets everything (monitored process restarted with a new incarnation,
  /// so the old streams' statistics no longer apply).
  void reset();

  /// Current (p_L, E[D], S[D]) estimate with the number of samples behind it.
  [[nodiscard]] link_estimate estimate() const;

  /// Total ALIVEs observed since the last reset.
  [[nodiscard]] std::uint64_t heartbeats_seen() const { return total_received_; }

 private:
  /// One stream's open loss-counting epoch; closed while `received` is 0.
  struct stream_epoch {
    group_id stream;
    std::uint64_t min_seq = 0;
    std::uint64_t max_seq = 0;
    std::uint64_t received = 0;
  };

  /// Fraction of the epoch's sequence span that never arrived.
  static double epoch_loss(const stream_epoch& epoch);
  void roll_epoch(stream_epoch& epoch);

  options opts_;
  windowed_stats delay_seconds_;  // absolute (synchronized) or re-based (skewed)
  windowed_stats raw_diff_seconds_;  // skew-tolerant mode: raw recv - sent
  std::uint64_t total_received_ = 0;

  /// estimate() is a pure function of the sample state and is queried both
  /// per received ALIVE (the link observer) and per remote per
  /// reconfiguration tick; the memo makes every query between two
  /// heartbeats free.
  mutable bool est_valid_ = false;
  mutable link_estimate est_cache_{};

  /// Scanned linearly: a sender carries a handful of groups.
  std::vector<stream_epoch> streams_;

  bool have_loss_ = false;
  double loss_ewma_ = 0.0;
};

}  // namespace omega::fd
