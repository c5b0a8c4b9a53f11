#include "common/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace omega {

void running_stats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void running_stats::reset() {
  n_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
}

double running_stats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double running_stats::stddev() const { return std::sqrt(variance()); }

double running_stats::ci95_half_width() const {
  if (n_ < 2) return 0.0;
  // Two-sided 95% t quantiles for small degrees of freedom, then the normal
  // approximation (1.96) beyond 30.
  static constexpr std::array<double, 31> t95 = {
      0,     12.71, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
      2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
      2.042};
  const std::size_t df = n_ - 1;
  const double t = df < t95.size() ? t95[df] : 1.96;
  return t * stddev() / std::sqrt(static_cast<double>(n_));
}

windowed_stats::windowed_stats(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

void windowed_stats::add(double x) {
  window_.push_back(x);
  sum_ += x;
  sum_sq_ += x * x;
  if (window_.size() > capacity_) {
    const double old = window_.front();
    window_.pop_front();
    sum_ -= old;
    sum_sq_ -= old * old;
  }
}

void windowed_stats::reset() {
  window_.clear();
  sum_ = 0.0;
  sum_sq_ = 0.0;
}

double windowed_stats::mean() const {
  if (window_.empty()) return 0.0;
  return sum_ / static_cast<double>(window_.size());
}

double windowed_stats::variance() const {
  const std::size_t n = window_.size();
  if (n < 2) return 0.0;
  const double m = mean();
  // Floating-point cancellation can make this slightly negative; clamp.
  const double v = (sum_sq_ - static_cast<double>(n) * m * m) / static_cast<double>(n - 1);
  return std::max(v, 0.0);
}

double windowed_stats::stddev() const { return std::sqrt(variance()); }

void time_fraction::begin(time_point start, bool initial) {
  last_change_ = start;
  current_ = initial;
  started_ = true;
  time_true_ = duration{0};
  total_ = duration{0};
}

void time_fraction::update(time_point t, bool value) {
  if (!started_ || value == current_) return;
  const duration elapsed = t - last_change_;
  total_ += elapsed;
  if (current_) time_true_ += elapsed;
  last_change_ = t;
  current_ = value;
}

void time_fraction::finish(time_point end) {
  if (!started_) return;
  const duration elapsed = end - last_change_;
  total_ += elapsed;
  if (current_) time_true_ += elapsed;
  last_change_ = end;
  started_ = false;
}

double time_fraction::fraction() const {
  if (total_.count() <= 0) return 0.0;
  return to_seconds(time_true_) / to_seconds(total_);
}

}  // namespace omega
