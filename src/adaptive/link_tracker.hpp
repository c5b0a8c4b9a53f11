// Per-peer link-quality tracking for the adaptation engine (DESIGN.md §5).
//
// The failure detector's link-quality estimator produces a point estimate
// per remote on every received heartbeat. The tracker turns that stream
// into something a *re-tuning policy* can trust:
//
//  * a sliding window of recent estimate snapshots per peer, so the view
//    smooths over per-heartbeat jitter instead of chasing it;
//  * staleness decay — a peer we have not heard from recently has an
//    estimate of *decaying confidence*. Confidence is expressed through the
//    `samples` field of the returned `fd::link_estimate`: it shrinks
//    geometrically with silence, and once it falls below the configurator's
//    `fd::kMinSamples` the solver automatically falls back to the
//    conservative cold-start operating point. Staleness therefore degrades
//    gracefully into "we do not know this link anymore" without a separate
//    code path;
//  * a cluster *aggregate*: a high per-field quantile, next to the worst
//    link, among peers with live confidence. Group-wide heartbeat
//    parameters must satisfy the QoS on every monitored link, so the
//    binding constraint is the worst one.
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "fd/qos.hpp"

namespace omega::adaptive {

class link_tracker {
 public:
  /// Snapshots older than this are dropped from the smoothing window
  /// (the newest snapshot is always kept so silence decays confidence
  /// instead of erasing the link outright).
  static constexpr duration kWindow = sec(30);
  /// Hard cap on snapshots retained per peer.
  static constexpr std::size_t kMaxSnapshots = 64;
  /// Age at which confidence starts decaying.
  static constexpr duration kStaleAfter = sec(10);
  /// Multiplier applied to the sample count per `kStaleAfter` of silence
  /// beyond the first.
  static constexpr double kStaleDecay = 0.5;
  /// Which per-peer quantile the aggregate reports for loss/delay. Below 1
  /// (the strict worst link) it is robust: 0.9 is the second-worst link in
  /// a 12-node cluster, so one peer's estimator excursion — a 2-sigma loss
  /// epoch happens somewhere in the cluster every few minutes — cannot move
  /// the group operating point on its own.
  static constexpr double kAggregateQuantile = 0.9;

  /// Feeds one estimator snapshot for `peer` taken at `now`. Snapshots
  /// below the confidence floor `fd::kMinSamples` are ignored (they reflect
  /// the estimator's prior, not the link).
  void observe(node_id peer, const fd::link_estimate& est, time_point now);

  /// Drops all state for one peer (it left or its node is known dead).
  void forget(node_id peer);

  /// Smoothed estimate for one peer with staleness-decayed confidence, or
  /// nullopt if the peer was never observed.
  [[nodiscard]] std::optional<fd::link_estimate> tracked(node_id peer,
                                                         time_point now) const;

  /// Binding estimate for a group-wide operating point: the per-field
  /// `kAggregateQuantile` of loss / delay mean / delay stddev across
  /// confident peers, with the min (decayed) sample count as confidence.
  /// Returns a zero-sample estimate when no confident peer exists. A peer
  /// whose decayed sample count is below `fd::kMinSamples` is not
  /// confident: one that just (re)appeared or went silent has nothing
  /// trustworthy to say about the network, and letting it drag the
  /// aggregate's confidence down would flip every retuner to the
  /// cold-start point on each churn event.
  [[nodiscard]] fd::link_estimate aggregate(time_point now) const;

  [[nodiscard]] std::size_t peer_count() const { return peers_.size(); }

  /// All peers with any tracked window (order unspecified). The per-link
  /// retuning loop walks this and filters by `tracked(...)->samples`.
  [[nodiscard]] std::vector<node_id> peers() const;

 private:
  struct snapshot {
    time_point at{};
    fd::link_estimate est;
  };
  struct peer_record {
    std::deque<snapshot> window;  // oldest first
  };

  void prune(peer_record& rec, time_point now) const;
  [[nodiscard]] fd::link_estimate blend(const peer_record& rec,
                                        time_point now) const;

  std::unordered_map<node_id, peer_record> peers_;
};

}  // namespace omega::adaptive
