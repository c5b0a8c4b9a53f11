// Sender-side heartbeat rate control.
//
// Monitors compute the heartbeat interval eta their QoS needs (per link,
// min-combined across their local groups) and send RATE_REQ messages; the
// sender must emit at the *fastest* rate any live monitor demands (paper
// §3: the configurator "computes the frequency eta at which q must send
// alive messages"). The default rate applies only while no unexpired
// request is outstanding (cold start, or every monitor gone): outstanding
// requests drive the rate in *both* directions, so a cluster whose
// monitors all relaxed — per-remote refinements on good links, or a
// background-class group — actually sends fewer heartbeats. Monitors stay
// safe under a slower-than-expected stream because every ALIVE carries the
// sender's current eta and freshness adapts to it. Requests expire so that
// a crashed monitor's demand does not pin a rate forever.
#pragma once

#include <unordered_map>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace omega::fd {

class rate_controller {
 public:
  /// Requests not refreshed for this long age out; a live monitor
  /// refreshes its request every `fd_manager::kRateRefresh` (20 s).
  static constexpr duration kRequestExpiry = sec(60);

  /// `default_eta` is the rate used with no outstanding requests (derived
  /// from the sender's own QoS spec).
  explicit rate_controller(duration default_eta) : default_eta_(default_eta) {}

  /// Records a rate request from `from` received at `now`.
  void on_request(node_id from, duration eta, time_point now);

  /// Drops any outstanding request from `from` (it left or crashed).
  void forget(node_id from);

  /// Smallest (fastest) unexpired requested interval; the default when no
  /// unexpired request is outstanding.
  [[nodiscard]] duration effective_eta(time_point now) const;

  void set_default_eta(duration eta) { default_eta_ = eta; }
  [[nodiscard]] duration default_eta() const { return default_eta_; }

  [[nodiscard]] std::size_t outstanding_requests() const { return requests_.size(); }

 private:
  struct request {
    duration eta;
    time_point expires;
  };

  duration default_eta_;
  std::unordered_map<node_id, request> requests_;

  /// Memoized scan result. effective_eta() is called on every outgoing
  /// ALIVE, and the full scan over per-remote requests made it O(cluster)
  /// per heartbeat. The cached minimum stays exact until either a request
  /// mutation that could raise the minimum (invalidation below) or the
  /// earliest recorded expiry passes (`valid_until`); both trigger a fresh
  /// scan. Mutations that can only lower or confirm the minimum update it
  /// in place. `valid_until` is allowed to be conservative (early) — an
  /// early rescan returns the same value, a late one could not.
  mutable bool cache_valid_ = false;
  mutable duration cached_min_{0};  // 0 = no unexpired request seen
  mutable time_point valid_until_{};
};

}  // namespace omega::fd
