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
//     between the embedded send timestamp and the local receive time over
//     one sliding window per remote. This needs synchronized clocks, and so
//     does NFD-S itself: a monitor compares the sender's send time plus
//     eta + delta with its own clock. Simulation clocks are perfectly
//     synchronized; the real-time runtime relies on NTP-grade sync exactly
//     like the paper's LAN testbed.
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
  /// Delay samples kept for E[D], S[D].
  static constexpr std::size_t kDelayWindow = 256;
  /// Heartbeats per stream per loss epoch.
  static constexpr std::size_t kLossEpoch = 128;
  /// Weight of the newest epoch in the loss EWMA.
  static constexpr double kLossEwmaAlpha = 0.3;
  /// A finite sample cannot certify loss below this.
  static constexpr double kLossFloor = 0.5 / 256.0;

  link_quality_estimator() : delay_seconds_(kDelayWindow) {}

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

  windowed_stats delay_seconds_;
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
