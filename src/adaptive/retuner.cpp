#include "adaptive/retuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace omega::adaptive {

namespace {

fd::fd_params solve_min_detection(const fd::qos_spec& qos,
                                  const fd::link_estimate& link) {
  const double total = to_seconds(qos.detection_time);
  // The rate budget: eta never drops below the cold-start rate T^U_D / 4.
  const double budget = total / 4.0;
  const double eta_max = std::max(budget, total / 2.0);

  std::optional<fd::fd_params> best;
  double best_latency = std::numeric_limits<double>::infinity();

  // eta sweeps up from the budget (never below it: rate is capped); delta
  // sweeps up from small until the point becomes feasible — the first
  // feasible delta is the smallest, and latency delta + eta/2 then only
  // grows with eta unless larger eta admits no smaller delta, so we still
  // scan all eta values (the search space is tiny).
  for (int i = 0; i <= retuner::kEtaSteps; ++i) {
    const double eta = budget + (eta_max - budget) * static_cast<double>(i) /
                                    static_cast<double>(retuner::kEtaSteps);
    if (eta <= 0.0 || eta >= total) continue;
    const double delta_max = total - eta;
    for (int j = 1; j <= retuner::kDeltaSteps; ++j) {
      const double delta = delta_max * static_cast<double>(j) /
                           static_cast<double>(retuner::kDeltaSteps);
      if (!fd::qos_constraints_hold(qos, link, eta, delta,
                                    retuner::kAdoptMargin)) {
        continue;
      }
      const double latency = delta + eta / 2.0;
      if (latency < best_latency) {
        best_latency = latency;
        const duration eta_d = from_seconds(eta);
        best = fd::fd_params{eta_d, from_seconds(delta), true};
      }
      break;  // larger delta at this eta is feasible but strictly slower
    }
  }
  if (best) return *best;
  // Nothing within the rate budget can hold the QoS on this link: hold the
  // line on cost (see the header comment).
  const duration eta_d = from_seconds(budget);
  return fd::fd_params{eta_d, qos.detection_time - eta_d, false};
}

/// True when `candidate` moved outside the dead band around `current` (or
/// flipped its feasibility verdict).
bool outside_dead_band(const fd::fd_params& current,
                       const fd::fd_params& candidate) {
  if (candidate.qos_feasible != current.qos_feasible) return true;
  const double eta_cur = std::max(to_seconds(current.eta), 1e-9);
  const double delta_cur = std::max(to_seconds(current.delta), 1e-9);
  const double eta_rel =
      std::abs(to_seconds(candidate.eta) - eta_cur) / eta_cur;
  const double delta_rel =
      std::abs(to_seconds(candidate.delta) - delta_cur) / delta_cur;
  return eta_rel > retuner::kEtaBand || delta_rel > retuner::kDeltaBand;
}

/// Smallest value of the geometric grid {base * step^n} that is >= x.
double round_up_geometric(double x, double base, double step) {
  if (x <= base) return base;
  const double n = std::ceil(std::log(x / base) / std::log(step));
  return base * std::pow(step, n);
}

/// Conservative coarse quantization of a link estimate (see the header
/// comment).
fd::link_estimate quantize(const fd::link_estimate& link) {
  fd::link_estimate q = link;
  // Loss: round up onto a 1-2-5 decade grid, floored at the estimator's
  // own certification floor (~0.2%).
  static constexpr double kLossGrid[] = {0.002, 0.005, 0.01, 0.02, 0.05,
                                         0.1,   0.2,   0.5,  1.0};
  q.loss_probability = 1.0;
  for (double g : kLossGrid) {
    if (link.loss_probability <= g) {
      q.loss_probability = g;
      break;
    }
  }
  // Delays: round up onto a 1.5^n grid anchored at 100 us. The grid is
  // deliberately coarse: a true delay sitting near a fine cell boundary
  // would flip cells under EWMA wobble and thrash the retuner.
  q.delay_mean = from_seconds(
      round_up_geometric(to_seconds(link.delay_mean), 100e-6, 1.5));
  q.delay_stddev = from_seconds(
      round_up_geometric(to_seconds(link.delay_stddev), 100e-6, 1.5));
  return q;
}

}  // namespace

fd::fd_params retuner::solve(const fd::qos_spec& qos,
                             const fd::link_estimate& raw_link, qos_class cls) {
  if (raw_link.samples < fd::kMinSamples) return fd::cold_start_params(qos);
  const fd::link_estimate link = quantize(raw_link);
  switch (cls) {
    case qos_class::interactive: return solve_min_detection(qos, link);
    case qos_class::background: return fd::configure(qos, link);
  }
  return fd::cold_start_params(qos);
}

bool retuner::point_feasible(const fd::qos_spec& qos,
                             const fd::link_estimate& raw_link,
                             const fd::fd_params& params, double margin) {
  if (raw_link.samples < fd::kMinSamples) return true;
  return fd::qos_constraints_hold(qos, quantize(raw_link),
                                  to_seconds(params.eta),
                                  to_seconds(params.delta), margin);
}

std::string_view to_string(qos_class cls) {
  switch (cls) {
    case qos_class::interactive: return "interactive";
    case qos_class::background: return "background";
  }
  return "unknown";
}

retuner::retuner(fd::qos_spec qos, qos_class cls) : qos_(qos), class_(cls) {
  group_.current = fd::cold_start_params(qos);
}

std::optional<fd::fd_params> retuner::evaluate_damped(
    damped_state& state, const fd::link_estimate& link, time_point now) {
  // Dwell gate first: inside the dwell window the current point stands no
  // matter what the estimates claim. This is the oscillation bound.
  if (state.adopted_once && now < state.last_retune + kMinDwell) {
    return std::nullopt;
  }
  const fd::fd_params candidate = solve(qos_, link, class_);
  // A current point that claims QoS feasibility but no longer delivers it
  // under the latest estimate is stale: the dead band must not keep it.
  // Judged with the lenient margin (Schmitt trigger, see kKeepMargin).
  const bool current_broken =
      state.current.qos_feasible &&
      !point_feasible(qos_, link, state.current, kKeepMargin);
  if (state.adopted_once && !current_broken &&
      !outside_dead_band(state.current, candidate)) {
    return std::nullopt;
  }
  // A candidate identical to the held point is never an adoption — on a
  // fresh state too, or every cold-started instance would count one no-op
  // "retune" and the bench retune metrics would mostly count churn.
  if (candidate == state.current) return std::nullopt;
  state.current = candidate;
  state.adopted_once = true;
  state.last_retune = now;
  ++retune_count_;
  return state.current;
}

std::optional<fd::fd_params> retuner::evaluate(const fd::link_estimate& link,
                                               time_point now) {
  return evaluate_damped(group_, link, now);
}

std::optional<fd::fd_params> retuner::evaluate_peer(
    node_id peer, const fd::link_estimate& link, time_point now) {
  auto [it, inserted] = peers_.try_emplace(peer);
  if (inserted) it->second.current = fd::cold_start_params(qos_);
  return evaluate_damped(it->second, link, now);
}

void retuner::forget_peer(node_id peer) { peers_.erase(peer); }

const fd::fd_params& retuner::current(node_id peer) const {
  auto it = peers_.find(peer);
  return it != peers_.end() ? it->second.current : group_.current;
}

}  // namespace omega::adaptive
