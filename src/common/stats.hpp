// Statistics helpers used by the link-quality estimator and by the
// experiment harness (sample means, variances, confidence intervals and
// time-weighted fractions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "common/time.hpp"

namespace omega {

/// Welford running mean/variance over an unbounded stream.
class running_stats {
 public:
  void add(double x);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance (0 when fewer than two samples).
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Half-width of the ~95% Student-t confidence interval on the mean
  /// (normal approximation of the t quantile for n > 30; exact table below).
  [[nodiscard]] double ci95_half_width() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Mean/variance over a sliding window of the most recent `capacity` samples.
/// Used by the link-quality estimator so that old network behaviour ages out.
class windowed_stats {
 public:
  explicit windowed_stats(std::size_t capacity);

  void add(double x);
  void reset();

  [[nodiscard]] std::size_t count() const { return window_.size(); }
  [[nodiscard]] bool full() const { return window_.size() == capacity_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t capacity_;
  std::deque<double> window_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// Accumulates the total time a boolean predicate spends `true` on the
/// virtual timeline; yields the fraction of time true (e.g. P_leader).
class time_fraction {
 public:
  /// Starts accounting at `start` with the given initial predicate value.
  void begin(time_point start, bool initial);
  /// Records a (possibly redundant) predicate value change at time `t`.
  /// Precondition: t is monotonically non-decreasing across calls.
  void update(time_point t, bool value);
  /// Closes accounting at `end` and freezes the totals.
  void finish(time_point end);

  [[nodiscard]] duration time_true() const { return time_true_; }
  [[nodiscard]] duration total() const { return total_; }
  /// Fraction of observed time with the predicate true (0 if no time).
  [[nodiscard]] double fraction() const;

 private:
  time_point last_change_{};
  bool current_ = false;
  bool started_ = false;
  duration time_true_{0};
  duration total_{0};
};

}  // namespace omega
