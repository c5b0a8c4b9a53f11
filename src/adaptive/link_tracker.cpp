#include "adaptive/link_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fd/configurator.hpp"

namespace omega::adaptive {

void link_tracker::observe(node_id peer, const fd::link_estimate& est,
                           time_point now) {
  // Estimates below the confidence floor still carry the estimator's
  // *prior* (default loss) rather than measurement; recording them would
  // bleed the prior into the smoothing window and walk the blended loss
  // through quantization cells as they age out — thrash, not signal.
  if (est.samples < fd::kMinSamples) return;
  peer_record& rec = peers_[peer];
  rec.window.push_back(snapshot{now, est});
  prune(rec, now);
}

void link_tracker::forget(node_id peer) { peers_.erase(peer); }

std::vector<node_id> link_tracker::peers() const {
  std::vector<node_id> out;
  out.reserve(peers_.size());
  for (const auto& [peer, rec] : peers_) out.push_back(peer);
  return out;
}

void link_tracker::prune(peer_record& rec, time_point now) const {
  while (rec.window.size() > kMaxSnapshots) rec.window.pop_front();
  // Keep the newest snapshot unconditionally: silence must decay confidence
  // via `blend`, not erase the link.
  while (rec.window.size() > 1 && rec.window.front().at + kWindow < now) {
    rec.window.pop_front();
  }
}

fd::link_estimate link_tracker::blend(const peer_record& rec,
                                      time_point now) const {
  // Unweighted mean over the in-window snapshots; the window itself is the
  // recency weighting (old snapshots age out entirely).
  double loss = 0.0;
  double delay = 0.0;
  double stddev = 0.0;
  std::size_t counted = 0;
  for (const snapshot& s : rec.window) {
    if (s.at + kWindow < now) continue;
    loss += s.est.loss_probability;
    delay += to_seconds(s.est.delay_mean);
    stddev += to_seconds(s.est.delay_stddev);
    ++counted;
  }
  const snapshot& newest = rec.window.back();
  fd::link_estimate out = newest.est;
  if (counted > 0) {
    const double n = static_cast<double>(counted);
    out.loss_probability = loss / n;
    out.delay_mean = from_seconds(delay / n);
    out.delay_stddev = from_seconds(stddev / n);
  }

  // Staleness decay: confidence halves per `kStaleAfter` of silence beyond
  // the first grace period.
  const duration age = now - newest.at;
  if (age > kStaleAfter) {
    const double periods =
        to_seconds(age - kStaleAfter) / to_seconds(kStaleAfter);
    const double factor = std::pow(kStaleDecay, periods);
    out.samples = static_cast<std::size_t>(
        static_cast<double>(newest.est.samples) * factor);
  }
  return out;
}

std::optional<fd::link_estimate> link_tracker::tracked(node_id peer,
                                                       time_point now) const {
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.window.empty()) return std::nullopt;
  return blend(it->second, now);
}

fd::link_estimate link_tracker::aggregate(time_point now) const {
  std::vector<double> losses;
  std::vector<double> delays;
  std::vector<double> stddevs;
  std::size_t min_samples = 0;
  for (const auto& [peer, rec] : peers_) {
    if (rec.window.empty()) continue;
    const fd::link_estimate est = blend(rec, now);
    if (est.samples < fd::kMinSamples) continue;
    losses.push_back(est.loss_probability);
    delays.push_back(to_seconds(est.delay_mean));
    stddevs.push_back(to_seconds(est.delay_stddev));
    // Confidence of the aggregate is the confidence of its least-known link.
    min_samples = losses.size() == 1 ? est.samples
                                     : std::min(min_samples, est.samples);
  }
  fd::link_estimate agg;
  agg.loss_probability = 0.0;
  agg.delay_mean = duration{0};
  agg.delay_stddev = duration{0};
  agg.samples = 0;
  if (losses.empty()) return agg;

  const auto at_quantile = [](std::vector<double>& v) {
    const auto idx = static_cast<std::size_t>(
        std::ceil(kAggregateQuantile * static_cast<double>(v.size() - 1)));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                     v.end());
    return v[idx];
  };
  agg.loss_probability = at_quantile(losses);
  agg.delay_mean = from_seconds(at_quantile(delays));
  agg.delay_stddev = from_seconds(at_quantile(stddevs));
  agg.samples = min_samples;
  return agg;
}

}  // namespace omega::adaptive
