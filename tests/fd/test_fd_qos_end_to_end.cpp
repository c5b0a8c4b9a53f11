// End-to-end QoS validation of the Chen et al. failure detector: a sender
// heartbeats through a simulated lossy link into an NFD-S monitor whose
// (eta, delta) come from the configurator, and we verify the three QoS
// guarantees the paper's service builds on (§3):
//
//   T^U_D  — a real crash is detected within the bound,
//   T^L_MR — mistakes are at least as rare as required (statistically),
//   P^L_A  — the monitor is right about the sender almost all the time.
//
// Swept over the paper's lossy-link grid with parameterized gtest.
#include <gtest/gtest.h>

#include <tuple>

#include "common/random.hpp"
#include "fd/configurator.hpp"
#include "fd/heartbeat_monitor.hpp"
#include "net/link_model.hpp"
#include "sim/simulator.hpp"

namespace omega::fd {
namespace {

using param = std::tuple<double, int>;  // (loss probability, delay ms)

class FdQosEndToEnd : public ::testing::TestWithParam<param> {};

struct qos_run {
  std::uint64_t mistakes = 0;       // trust -> suspect while sender alive
  double trusted_seconds = 0.0;     // time spent trusting while alive
  double alive_seconds = 0.0;       // total alive time observed
  double detection_seconds = -1.0;  // time from real crash to suspicion
};

/// Simulates `alive` seconds of heartbeating over the link, then a crash.
qos_run simulate(const qos_spec& qos, double loss, duration delay,
                 duration alive, std::uint64_t seed) {
  sim::simulator sim;
  net::link_model link({loss, delay}, rng{seed});

  // Configure from the true link characteristics (the estimator's job in
  // the full stack; here we isolate the monitor's QoS).
  link_estimate est;
  est.loss_probability = loss;
  est.delay_mean = delay;
  est.delay_stddev = delay;  // exponential: stddev == mean
  est.samples = 1000;
  const fd_params params = configure(qos, est);
  EXPECT_TRUE(params.qos_feasible);

  qos_run out;
  bool sender_alive = true;
  bool trusted = false;
  time_point last_edge = sim.now();
  time_point crash_at{};

  heartbeat_monitor monitor(sim, sim, params.delta, [&](bool now_trusted) {
    const time_point t = sim.now();
    if (trusted && sender_alive) {
      out.trusted_seconds += to_seconds(t - last_edge);
    }
    if (!now_trusted) {
      if (sender_alive) {
        ++out.mistakes;
      } else if (out.detection_seconds < 0) {
        out.detection_seconds = to_seconds(t - crash_at);
      }
    }
    trusted = now_trusted;
    last_edge = t;
  });

  // Sender loop: heartbeat every eta until the crash time.
  std::function<void()> tick = [&] {
    if (!sender_alive) return;
    const time_point send_time = sim.now();
    if (const auto transit = link.transit()) {
      sim.schedule_after(*transit, [&, send_time] {
        monitor.on_heartbeat(send_time, params.eta);
      });
    }
    sim.schedule_after(params.eta, tick);
  };
  sim.schedule_at(sim.now(), tick);

  sim.schedule_after(alive, [&] {
    sender_alive = true;  // close the books on the alive period first
    if (trusted) out.trusted_seconds += to_seconds(sim.now() - last_edge);
    out.alive_seconds = to_seconds(alive);
    sender_alive = false;
    crash_at = sim.now();
    last_edge = sim.now();
  });

  // Run past the crash long enough for detection.
  sim.run_until(time_origin + alive + qos.detection_time * 4);
  return out;
}

TEST_P(FdQosEndToEnd, MeetsConfiguredQoS) {
  const auto [loss, delay_ms] = GetParam();

  // A relaxed-but-checkable QoS: detect within 1 s, at most ~1 mistake per
  // simulated hour. (The paper's 100-day bound would need a 100-day
  // simulation to falsify; the *mechanism* is identical.)
  qos_spec qos;
  qos.detection_time = sec(1);
  qos.mistake_recurrence = sec(3600);
  qos.query_accuracy = 0.999;

  const double sim_hours = 6.0;
  qos_run total;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto run = simulate(qos, loss, msec(delay_ms),
                              from_seconds(sim_hours * 3600.0 / 3.0), seed);
    total.mistakes += run.mistakes;
    total.trusted_seconds += run.trusted_seconds;
    total.alive_seconds += run.alive_seconds;
    ASSERT_GE(run.detection_seconds, 0.0) << "crash was never detected";
    // T^U_D: detection within the bound (small scheduling epsilon).
    EXPECT_LE(run.detection_seconds, to_seconds(qos.detection_time) + 0.001);
  }

  // T^L_MR: with E[T_MR] >= 1 h, seeing > 18 mistakes in 6 h is
  // implausible (Poisson tail at 3x the mean is ~1e-4 per cell).
  EXPECT_LE(total.mistakes, 3.0 * sim_hours)
      << "mistake rate far above the configured bound";

  // P^L_A: fraction of alive time spent trusted. Allow a small calibration
  // margin below the target.
  const double pa = total.trusted_seconds / total.alive_seconds;
  EXPECT_GE(pa, 0.995) << "query accuracy collapsed";
}

std::string param_name(const ::testing::TestParamInfo<param>& info) {
  const auto [loss, delay_ms] = info.param;
  std::string l = loss == 0.0 ? "0" : (loss == 0.01 ? "1pc" : "10pc");
  return "loss" + l + "_delay" + std::to_string(delay_ms) + "ms";
}

INSTANTIATE_TEST_SUITE_P(
    LossyGrid, FdQosEndToEnd,
    ::testing::Values(param{0.0, 1}, param{0.01, 10}, param{0.01, 100},
                      param{0.1, 10}, param{0.1, 100}),
    param_name);

}  // namespace
}  // namespace omega::fd
