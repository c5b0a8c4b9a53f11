#include "fd/configurator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace omega::fd {

double delay_tail(const link_estimate& link, delay_tail_model tail,
                  double x_seconds) {
  if (x_seconds <= 0.0) return 1.0;
  switch (tail) {
    case delay_tail_model::exponential: {
      const double mean = std::max(to_seconds(link.delay_mean), 1e-9);
      return std::exp(-x_seconds / mean);
    }
    case delay_tail_model::chebyshev: {
      const double mean = std::max(to_seconds(link.delay_mean), 0.0);
      if (x_seconds <= mean) return 1.0;
      const double sd = std::max(to_seconds(link.delay_stddev), 1e-9);
      const double var = sd * sd;
      const double excess = x_seconds - mean;
      return var / (var + excess * excess);
    }
    case delay_tail_model::pareto: {
      // Moment fit of a Pareto(x_m, alpha): E = alpha x_m / (alpha - 1),
      // V / E^2 = 1 / (alpha (alpha - 2)) => alpha = 1 + sqrt(1 + E^2/V)
      // (always > 2, so both fitted moments exist).
      const double mean = std::max(to_seconds(link.delay_mean), 1e-9);
      const double sd = std::max(to_seconds(link.delay_stddev), 1e-9);
      const double ratio = (mean / sd) * (mean / sd);
      const double alpha = 1.0 + std::sqrt(1.0 + ratio);
      const double x_m = mean * (alpha - 1.0) / alpha;
      if (x_seconds <= x_m) return 1.0;
      return std::pow(x_m / x_seconds, alpha);
    }
  }
  return 1.0;
}

double mistake_probability(const link_estimate& link, delay_tail_model tail,
                           double eta_s, double delta_s) {
  if (eta_s <= 0.0) return 1.0;
  const double p = std::clamp(link.loss_probability, 0.0, 1.0);
  const int k = static_cast<int>(delta_s / eta_s) + 1;
  double q0 = 1.0;
  for (int j = 1; j <= k; ++j) {
    const double x = delta_s - static_cast<double>(j - 1) * eta_s;
    const double factor = p + (1.0 - p) * delay_tail(link, tail, x);
    q0 *= std::min(factor, 1.0);
    if (q0 < 1e-300) return 0.0;  // underflow guard: effectively impossible
  }
  return q0;
}

bool qos_constraints_hold_q0(const qos_spec& qos, double loss_probability,
                             double eta_s, double q0, double margin) {
  const double p = std::clamp(loss_probability, 0.0, 0.999999);
  const double recurrence =
      q0 > 0.0 ? eta_s / q0 : std::numeric_limits<double>::infinity();
  const double mistake_budget = (1.0 - qos.query_accuracy) / margin;
  const bool accuracy_ok = q0 / (1.0 - p) <= mistake_budget;
  return recurrence >= to_seconds(qos.mistake_recurrence) * margin &&
         accuracy_ok;
}

bool qos_constraints_hold(const qos_spec& qos, const link_estimate& link,
                          delay_tail_model tail, double eta_s, double delta_s,
                          double margin) {
  const double q0 = mistake_probability(link, tail, eta_s, delta_s);
  return qos_constraints_hold_q0(qos, link.loss_probability, eta_s, q0, margin);
}

fd_params cold_start_params(const qos_spec& qos) {
  fd_params params;
  params.eta = qos.detection_time / 4;
  params.delta = qos.detection_time - params.eta;
  params.qos_feasible = false;  // unverified until the estimator warms up
  return params;
}

fd_params configure(const qos_spec& qos, const link_estimate& link,
                    const configurator_options& opts) {
  if (link.samples < opts.min_samples) return cold_start_params(qos);

  const delay_tail_model tail = effective_tail(link, opts);
  const double total = to_seconds(qos.detection_time);
  const int steps = std::max(opts.grid_steps, 4);

  double best_eta = 0.0;
  double best_recurrence = 0.0;

  // Walk eta from largest (cheapest) to smallest; take the first feasible
  // point. Track the best-achievable recurrence for the infeasible fallback,
  // over points with eta <= delta only: there k = floor(delta/eta) + 1 >= 2,
  // so one late or lost heartbeat never raises a suspicion on its own.
  for (int i = steps - 1; i >= 1; --i) {
    const double eta = total * static_cast<double>(i) / static_cast<double>(steps);
    const double delta = total - eta;
    const double q0 = mistake_probability(link, tail, eta, delta);
    const double recurrence = q0 > 0.0 ? eta / q0 : std::numeric_limits<double>::infinity();

    if (qos_constraints_hold_q0(qos, link.loss_probability, eta, q0)) {
      // Round eta once and take delta as the exact integer complement so
      // eta + delta == detection_time holds on the duration grid.
      const duration eta_d = from_seconds(eta);
      return fd_params{eta_d, qos.detection_time - eta_d, true};
    }
    if (eta <= delta && recurrence > best_recurrence) {
      best_recurrence = recurrence;
      best_eta = eta;
    }
  }

  // Nothing feasible (e.g. loss too high for this T^U_D): best effort.
  fd_params params;
  params.eta = from_seconds(best_eta > 0.0 ? best_eta : total / steps);
  params.delta = qos.detection_time - params.eta;
  params.qos_feasible = false;
  return params;
}

}  // namespace omega::fd
