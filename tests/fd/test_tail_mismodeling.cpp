// Tail mis-modeling (ISSUE 10 satellite): the online tail-shape verdict in
// the link quality estimator must tell an exponential delay tail from a
// Pareto one, and the `auto_tail` configurator switch must turn that
// verdict into a different — safer — operating point. The failure mode
// being pinned: modeling a heavy Pareto tail as exponential makes the
// predicted Pr(D > x) collapse far too fast, so the configurator certifies
// an (eta, delta) point whose *actual* mistake probability blows through
// the QoS; auto_tail closes exactly that gap.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "fd/configurator.hpp"
#include "fd/link_quality_estimator.hpp"
#include "net/link_model.hpp"

namespace omega::fd {
namespace {

/// Feeds `n` delivered heartbeats whose delay is drawn by `draw`.
template <typename Draw>
link_estimate feed(link_quality_estimator& lqe, int n, Draw&& draw) {
  time_point send = time_origin;
  for (int i = 0; i < n; ++i) {
    send += msec(100);
    lqe.on_heartbeat(send, send + draw());
  }
  return lqe.estimate();
}

TEST(TailMismodeling, ExponentialStreamKeepsExponentialVerdict) {
  link_quality_estimator lqe;
  rng r(7);
  const auto est = feed(lqe, 2000, [&] { return r.exponential(msec(10)); });
  EXPECT_EQ(est.tail, delay_tail_model::exponential);
}

TEST(TailMismodeling, ParetoStreamFlipsTheVerdict) {
  // alpha = 2.5: a classic WAN-ish heavy tail — finite mean and variance,
  // divergent fourth moment, so the window's excess kurtosis runs far past
  // any exponential's (6) as samples accumulate.
  link_quality_estimator lqe;
  rng r(7);
  const auto est = feed(lqe, 2000, [&] { return r.pareto(msec(10), 2.5); });
  EXPECT_EQ(est.tail, delay_tail_model::pareto);
}

TEST(TailMismodeling, HeavyTailedLinkProfileFlipsTheVerdict) {
  // End-to-end over the simulator's own WAN model: delays drawn by a
  // `link_model` on `link_profile::heavy_tailed` (not hand-rolled draws)
  // must flip the verdict, while the LAN profile keeps it exponential.
  net::link_model wan(net::link_profile::heavy_tailed(msec(10), 0.0, 2.5),
                      rng(11));
  net::link_model lan(net::link_profile::lan(), rng(12));
  link_quality_estimator wan_lqe;
  link_quality_estimator lan_lqe;
  const auto wan_est = feed(wan_lqe, 2000, [&] { return *wan.transit(); });
  const auto lan_est = feed(lan_lqe, 2000, [&] { return *lan.transit(); });
  EXPECT_EQ(wan_est.tail, delay_tail_model::pareto);
  EXPECT_EQ(lan_est.tail, delay_tail_model::exponential);
}

TEST(TailMismodeling, VerdictNeedsEnoughSamples) {
  // Below tail_min_samples the kurtosis is noise: no verdict flip.
  link_quality_estimator lqe;
  rng r(7);
  const auto est = feed(lqe, 32, [&] { return r.pareto(msec(10), 2.5); });
  EXPECT_EQ(est.tail, delay_tail_model::exponential);
}

TEST(TailMismodeling, ResetForgetsTheVerdict) {
  link_quality_estimator lqe;
  rng r(7);
  feed(lqe, 2000, [&] { return r.pareto(msec(10), 2.5); });
  lqe.reset();
  EXPECT_EQ(lqe.estimate().tail, delay_tail_model::exponential);
}

TEST(TailMismodeling, AutoTailPicksASaferOperatingPoint) {
  // Build the estimate a Pareto link would produce, then configure twice:
  // once mis-modeled (static exponential tail) and once with auto_tail
  // honoring the verdict. The honest model must not certify feasibility
  // the mis-model only pretends to have, and at the mis-modeled operating
  // point the *Pareto* mistake probability must exceed what the
  // exponential model predicted — the quantitative mis-modeling gap.
  link_quality_estimator lqe;
  rng r(7);
  const link_estimate est =
      feed(lqe, 4000, [&] { return r.pareto(msec(20), 2.5); });
  ASSERT_EQ(est.tail, delay_tail_model::pareto);

  qos_spec qos;  // paper default: detect in 1 s, rare mistakes
  configurator_options mis;  // static exponential assumption
  configurator_options honest;
  honest.auto_tail = true;
  EXPECT_EQ(effective_tail(est, mis), delay_tail_model::exponential);
  EXPECT_EQ(effective_tail(est, honest), delay_tail_model::pareto);

  const fd_params p_mis = configure(qos, est, mis);
  const double eta = to_seconds(p_mis.eta);
  const double delta = to_seconds(p_mis.delta);
  const double q0_pretended =
      mistake_probability(est, delay_tail_model::exponential, eta, delta);
  const double q0_actual =
      mistake_probability(est, delay_tail_model::pareto, eta, delta);
  EXPECT_GT(q0_actual, q0_pretended)
      << "the heavy tail must make the certified point worse than promised";

  // The honest configuration reacts: either it must flag the QoS as
  // infeasible under the heavy tail, or its chosen point must actually
  // satisfy the constraints under the Pareto model.
  const fd_params p_honest = configure(qos, est, honest);
  if (p_honest.qos_feasible) {
    EXPECT_TRUE(qos_constraints_hold(qos, est, delay_tail_model::pareto,
                                     to_seconds(p_honest.eta),
                                     to_seconds(p_honest.delta)));
  }
  // And the mis-modeled point must NOT pass the honest constraint check if
  // the honest search had to move away from it.
  if (p_honest.qos_feasible &&
      (p_honest.eta != p_mis.eta || p_honest.delta != p_mis.delta)) {
    EXPECT_FALSE(qos_constraints_hold(qos, est, delay_tail_model::pareto, eta,
                                      delta))
        << "honest search moved, so the mis-modeled point should be invalid";
  }
}

}  // namespace
}  // namespace omega::fd
