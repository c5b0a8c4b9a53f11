#include "fd/rate_controller.hpp"

#include <algorithm>

namespace omega::fd {

void rate_controller::on_request(node_id from, duration eta, time_point now) {
  if (eta <= duration{0}) return;  // malformed; ignore
  auto [it, inserted] = requests_.try_emplace(from, request{eta, now + kRequestExpiry});
  if (!inserted) {
    // Overwriting the entry that achieved (or could have achieved) the
    // cached minimum with a slower rate can raise the true minimum, which
    // an in-place update cannot express — rescan on next query. Extending
    // an expiry never needs an invalidation: valid_until_ may still point
    // at the overwritten (earlier) deadline, and rescanning early is
    // harmless.
    if (cache_valid_ && it->second.eta <= cached_min_ && eta > it->second.eta) {
      cache_valid_ = false;
    }
    it->second = request{eta, now + kRequestExpiry};
  }
  if (cache_valid_ && (cached_min_ == duration{0} || eta <= cached_min_)) {
    cached_min_ = eta;
    valid_until_ = std::min(valid_until_, it->second.expires);
  }
}

void rate_controller::forget(node_id from) {
  auto it = requests_.find(from);
  if (it == requests_.end()) return;
  // Removing a potential minimum-achiever can raise the minimum.
  if (cache_valid_ && it->second.eta <= cached_min_) cache_valid_ = false;
  requests_.erase(it);
}

duration rate_controller::effective_eta(time_point now) const {
  if (cache_valid_ && now < valid_until_) {
    return cached_min_ == duration{0} ? default_eta_ : cached_min_;
  }
  duration eta{0};
  time_point next_expiry = time_point::max();
  for (const auto& [node, req] : requests_) {
    if (req.expires <= now) continue;  // expired; pruned lazily by overwrite
    if (eta == duration{0} || req.eta < eta) eta = req.eta;
    next_expiry = std::min(next_expiry, req.expires);
  }
  cached_min_ = eta;
  valid_until_ = next_expiry;
  cache_valid_ = true;
  return eta == duration{0} ? default_eta_ : eta;
}

}  // namespace omega::fd
