// Failure Detector Configurator (paper §3, Figure 1; Chen et al. [5] §5).
//
// Translates a QoS requirement (T^U_D, T^L_MR, P^L_A) plus the current link
// estimate (p_L, E[D], S[D]) into the NFD-S operating point (eta, delta).
//
// Model (NFD-S with freshness points): the sender emits heartbeat m_i at
// sigma_i = i*eta; the monitor trusts during [tau_i, tau_{i+1}) iff some
// m_j, j >= i, has arrived, where tau_i = sigma_i + delta. Consequences:
//
//  * worst-case detection time is eta + delta (crash right after a send),
//    so any (eta, delta) with eta + delta <= T^U_D meets T^U_D;
//  * a *mistake* happens at a freshness point tau_{i+1} iff none of the
//    messages m_{i+1}..m_{i+k} (those already sent by tau_{i+1},
//    k = floor(delta/eta) + 1) has arrived by tau_{i+1}:
//        q0 = prod_{j=1..k} [ p_L + (1 - p_L) * Pr(D > delta - (j-1)*eta) ]
//    giving an expected mistake recurrence E[T_MR] = eta / q0. Pr(D > x)
//    is the exponential tail exp(-x / E[D]): the paper's evaluation draws
//    exponentially distributed delays (§6.1);
//  * a mistake lasts until the next heartbeat gets through,
//    E[T_M] <= eta / (1 - p_L), so the query accuracy is at least
//        P_A >= 1 - q0 / (1 - p_L).
//
// The configurator picks the *largest* eta (fewest messages, i.e. cheapest
// operating point) with delta = T^U_D - eta such that both the E[T_MR] and
// the P_A constraints hold. When no point on the grid is feasible (e.g.
// extremely lossy link and tight T^U_D), it returns the point with the best
// achievable mistake recurrence among those with delta >= eta, and marks it
// `qos_feasible = false` — the same "QoS under some conditions" caveat as
// the paper. A best effort never has delta < eta: such a monitor suspects
// a live sender whenever one heartbeat is late or lost.
#pragma once

#include <cstddef>

#include "fd/qos.hpp"

namespace omega::fd {

/// Grid points for eta in (0, T^U_D).
inline constexpr int kGridSteps = 100;
/// Below this many link samples the estimator output is not trusted and a
/// conservative default operating point is returned instead.
inline constexpr std::size_t kMinSamples = 16;

/// Pr(D > x) under the exponential tail exp(-x / E[D]) of §6.1.
[[nodiscard]] double delay_tail(const link_estimate& link, double x_seconds);

/// Probability that a given freshness point opens a mistake (q0 above).
[[nodiscard]] double mistake_probability(const link_estimate& link,
                                         double eta_s, double delta_s);

/// Do both QoS constraints (E[T_MR] >= T^L_MR and P_A >= P^L_A) hold at
/// the point (eta, delta) under `link`? `margin` scales the requirements
/// (> 1 stricter, < 1 more lenient); the adaptive retuner uses it as a
/// Schmitt trigger. This is the single home of the constraint math — the
/// grid searches in `configure` and in the adaptive retuner both call it.
[[nodiscard]] bool qos_constraints_hold(const qos_spec& qos,
                                        const link_estimate& link, double eta_s,
                                        double delta_s, double margin = 1.0);

/// Same predicate with a precomputed mistake probability, for grid
/// searches that already need q0 for other bookkeeping.
[[nodiscard]] bool qos_constraints_hold_q0(const qos_spec& qos,
                                           double loss_probability,
                                           double eta_s, double q0,
                                           double margin = 1.0);

/// Computes the NFD-S operating point for one monitored link.
[[nodiscard]] fd_params configure(const qos_spec& qos, const link_estimate& link);

/// Conservative operating point used before the estimator has enough
/// samples: eta = T^U_D / 4, delta = 3*T^U_D / 4.
[[nodiscard]] fd_params cold_start_params(const qos_spec& qos);

}  // namespace omega::fd
