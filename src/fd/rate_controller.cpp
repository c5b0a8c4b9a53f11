#include "fd/rate_controller.hpp"

namespace omega::fd {

void rate_controller::on_request(node_id from, duration eta, time_point now) {
  if (eta <= duration{0}) return;  // malformed; ignore
  requests_[from] = request{eta, now + kRequestExpiry};
}

duration rate_controller::effective_eta(time_point now) const {
  duration eta{0};
  for (const auto& [node, req] : requests_) {
    if (req.expires <= now) continue;  // expired; pruned lazily by overwrite
    if (eta == duration{0} || req.eta < eta) eta = req.eta;
  }
  return eta == duration{0} ? default_eta_ : eta;
}

}  // namespace omega::fd
