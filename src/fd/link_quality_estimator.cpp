#include "fd/link_quality_estimator.hpp"

#include <algorithm>

namespace omega::fd {

link_quality_estimator::link_quality_estimator(options opts)
    : opts_(opts),
      delay_seconds_(opts.delay_window),
      raw_diff_seconds_(opts.delay_window) {}

void link_quality_estimator::on_heartbeat(time_point sent, time_point received) {
  est_valid_ = false;
  ++total_received_;
  if (opts_.synchronized_clocks) {
    // Delay sample; clamp at zero in case of residual clock skew.
    delay_seconds_.add(std::max(0.0, to_seconds(received - sent)));
  } else {
    // Skew-tolerant mode: keep the raw (offset-polluted, possibly negative)
    // difference; estimate() re-bases against the window minimum.
    raw_diff_seconds_.add(to_seconds(received - sent));
  }
}

void link_quality_estimator::on_sequence(group_id stream, std::uint64_t seq) {
  est_valid_ = false;
  const auto is_stream = [stream](const stream_epoch& e) { return e.stream == stream; };
  auto it = std::find_if(streams_.begin(), streams_.end(), is_stream);
  stream_epoch& epoch =
      it != streams_.end() ? *it : streams_.emplace_back(stream_epoch{stream});
  if (epoch.received == 0) {
    epoch.min_seq = epoch.max_seq = seq;
    epoch.received = 1;
    return;
  }
  epoch.min_seq = std::min(epoch.min_seq, seq);
  epoch.max_seq = std::max(epoch.max_seq, seq);
  ++epoch.received;
  if (epoch.received >= opts_.loss_epoch) roll_epoch(epoch);
}

void link_quality_estimator::drop_stream(group_id stream) {
  est_valid_ = false;
  std::erase_if(streams_,
                [stream](const stream_epoch& e) { return e.stream == stream; });
}

double link_quality_estimator::epoch_loss(const stream_epoch& epoch) {
  const std::uint64_t span = epoch.max_seq - epoch.min_seq + 1;
  return span > epoch.received
             ? 1.0 - static_cast<double>(epoch.received) / static_cast<double>(span)
             : 0.0;
}

void link_quality_estimator::roll_epoch(stream_epoch& epoch) {
  const double observed = epoch_loss(epoch);
  if (have_loss_) {
    loss_ewma_ = (1.0 - opts_.loss_ewma_alpha) * loss_ewma_ +
                 opts_.loss_ewma_alpha * observed;
  } else {
    loss_ewma_ = observed;
    have_loss_ = true;
  }
  epoch.received = 0;
}

void link_quality_estimator::reset() {
  est_valid_ = false;
  delay_seconds_.reset();
  raw_diff_seconds_.reset();
  total_received_ = 0;
  streams_.clear();
  have_loss_ = false;
  loss_ewma_ = 0.0;
}

link_estimate link_quality_estimator::estimate() const {
  if (est_valid_) return est_cache_;
  link_estimate est;
  est.samples = opts_.synchronized_clocks ? delay_seconds_.count()
                                          : raw_diff_seconds_.count();
  if (est.samples == 0) {  // defaults: see qos.hpp
    est_cache_ = est;
    est_valid_ = true;
    return est;
  }

  // Tail-shape verdict from the active window's excess kurtosis; kurtosis
  // is shift-invariant, so the skew-polluted raw differences classify the
  // tail exactly as well as absolute delays do.
  if (opts_.estimate_tail && est.samples >= opts_.tail_min_samples) {
    const windowed_stats& window =
        opts_.synchronized_clocks ? delay_seconds_ : raw_diff_seconds_;
    if (window.excess_kurtosis() > opts_.pareto_kurtosis_threshold) {
      est.tail = delay_tail_model::pareto;
    }
  }

  if (opts_.synchronized_clocks) {
    est.delay_mean = from_seconds(delay_seconds_.mean());
    est.delay_stddev = from_seconds(delay_seconds_.stddev());
  } else {
    // Jitter above the window's fastest observation. The unknown skew and
    // propagation floor cancel out of the (eta, delta) computation up to a
    // constant the configurator absorbs conservatively.
    est.delay_mean = from_seconds(
        std::max(0.0, raw_diff_seconds_.mean() - raw_diff_seconds_.minimum()));
    est.delay_stddev = from_seconds(raw_diff_seconds_.stddev());
  }

  double loss = est.loss_probability;  // conservative default
  if (have_loss_) {
    loss = loss_ewma_;
  } else {
    // Early estimate from the fullest partial first epoch.
    const auto fullest = std::max_element(
        streams_.begin(), streams_.end(),
        [](const stream_epoch& a, const stream_epoch& b) {
          return a.received < b.received;
        });
    if (fullest != streams_.end() && fullest->received >= 16) {
      loss = epoch_loss(*fullest);
    }
  }
  est.loss_probability = std::clamp(std::max(loss, opts_.loss_floor), 0.0, 1.0);
  est_cache_ = est;
  est_valid_ = true;
  return est;
}

}  // namespace omega::fd
