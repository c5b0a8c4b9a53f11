// fd_manager tests: the shared, per-workstation failure-detector module —
// lazy monitor creation, trust transitions, incarnation handling, rate
// renegotiation with hysteresis, and adaptation to degrading links.
#include <gtest/gtest.h>

#include <vector>

#include "fd/fd_manager.hpp"
#include "sim/simulator.hpp"

namespace omega::fd {
namespace {

const group_id g1{1};
const group_id g2{2};
constexpr node_id remote{7};

struct transition {
  group_id group;
  node_id node;
  bool trusted;
};

struct fd_fixture {
  sim::simulator sim;
  fd_manager fd;
  std::vector<transition> transitions;
  std::vector<std::pair<node_id, duration>> rate_requests;

  fd_fixture() : fd(sim, sim) {
    fd.set_transition_handler([this](group_id g, node_id n, bool t) {
      transitions.push_back({g, n, t});
    });
    fd.set_rate_request_fn([this](node_id n, duration eta) {
      rate_requests.emplace_back(n, eta);
    });
    fd.start();
  }

  /// An ALIVE whose every payload carries heartbeat number `seq`.
  proto::alive_msg alive_from(node_id from, incarnation inc, std::uint64_t seq,
                              duration eta,
                              std::initializer_list<group_id> groups = {g1}) {
    proto::alive_msg msg;
    msg.from = from;
    msg.inc = inc;
    msg.send_time = sim.now();
    msg.eta = eta;
    for (group_id g : groups) {
      proto::group_payload p;
      p.group = g;
      p.seq = seq;
      p.pid = process_id{from.value()};
      p.candidate = true;
      p.competing = true;
      msg.groups.push_back(p);
    }
    return msg;
  }

  proto::alive_msg alive(incarnation inc, std::uint64_t seq, duration eta,
                         std::initializer_list<group_id> groups = {g1}) {
    return alive_from(remote, inc, seq, eta, groups);
  }
};

TEST(FdManager, FirstAliveCreatesMonitorAndTrusts) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  EXPECT_FALSE(f.fd.is_trusted(g1, remote));
  f.fd.on_alive(f.alive(1, 1, msec(250)), f.sim.now());
  EXPECT_TRUE(f.fd.is_trusted(g1, remote));
  ASSERT_FALSE(f.transitions.empty());
  EXPECT_TRUE(f.transitions.back().trusted);
  EXPECT_EQ(f.fd.monitor_count(), 1u);
}

TEST(FdManager, AliveForUnknownGroupIgnored) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  f.fd.on_alive(f.alive(1, 1, msec(250), {g2}), f.sim.now());
  EXPECT_EQ(f.fd.monitor_count(), 0u);
  EXPECT_FALSE(f.fd.is_trusted(g2, remote));
}

TEST(FdManager, SilenceTriggersSuspicion) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());  // T^U_D = 1 s
  f.fd.on_alive(f.alive(1, 1, msec(250)), f.sim.now());
  ASSERT_TRUE(f.fd.is_trusted(g1, remote));
  f.sim.run_until(f.sim.now() + sec(3));
  EXPECT_FALSE(f.fd.is_trusted(g1, remote));
  ASSERT_GE(f.transitions.size(), 2u);
  EXPECT_FALSE(f.transitions.back().trusted);
}

TEST(FdManager, SteadyHeartbeatsKeepTrust) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  std::uint64_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  EXPECT_TRUE(f.fd.is_trusted(g1, remote));
  // Exactly one transition: the initial trust.
  EXPECT_EQ(f.transitions.size(), 1u);
}

TEST(FdManager, RecoveredHeartbeatRestoresTrust) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  f.fd.on_alive(f.alive(1, 1, msec(250)), f.sim.now());
  f.sim.run_until(f.sim.now() + sec(3));
  ASSERT_FALSE(f.fd.is_trusted(g1, remote));
  f.fd.on_alive(f.alive(1, 2, msec(250)), f.sim.now());
  EXPECT_TRUE(f.fd.is_trusted(g1, remote));
}

TEST(FdManager, NewIncarnationResetsLinkHistory) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  std::uint64_t seq = 0;
  for (int i = 0; i < 300; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  const auto before = f.fd.link_quality(remote);
  EXPECT_GT(before.samples, 100u);
  // The remote restarts: its heartbeat stream starts over.
  f.fd.on_alive(f.alive(2, 1, msec(250)), f.sim.now());
  const auto after = f.fd.link_quality(remote);
  EXPECT_LT(after.samples, before.samples)
      << "stale stream statistics must not survive a reincarnation";
}

TEST(FdManager, StaleIncarnationAliveDiscarded) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  f.fd.on_alive(f.alive(3, 1, msec(250)), f.sim.now());
  ASSERT_TRUE(f.fd.is_trusted(g1, remote));
  f.sim.run_until(f.sim.now() + sec(3));
  ASSERT_FALSE(f.fd.is_trusted(g1, remote));
  // A ghost heartbeat from the previous life must not restore trust.
  f.fd.on_alive(f.alive(2, 99, msec(250)), f.sim.now());
  EXPECT_FALSE(f.fd.is_trusted(g1, remote));
}

TEST(FdManager, PerGroupMonitorsShareOneEstimator) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  f.fd.add_group(g2, qos_spec::paper_default());
  f.fd.on_alive(f.alive(1, 1, msec(250), {g1, g2}), f.sim.now());
  EXPECT_TRUE(f.fd.is_trusted(g1, remote));
  EXPECT_TRUE(f.fd.is_trusted(g2, remote));
  EXPECT_EQ(f.fd.monitor_count(), 2u);
}

TEST(FdManager, ColdMonitorSuspectsAtLastHeartbeatPlusDetectionTime) {
  // The sender's first ALIVE creates the monitor. Whatever the announced
  // interval, an unpinned monitor trusts it until send time + T^U_D: a
  // cold-start delta of 3/4 T^U_D on top of a 490 ms interval would trust
  // it until s + 1.24 s, past the 1 s bound.
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());  // T^U_D = 1 s
  const time_point sent = f.sim.now();
  f.fd.on_alive(f.alive(1, 1, msec(490)), sent);
  f.sim.run_until(sent + msec(999));
  EXPECT_TRUE(f.fd.is_trusted(g1, remote));
  f.sim.run_until(sent + sec(1));
  EXPECT_FALSE(f.fd.is_trusted(g1, remote));
}

TEST(FdManager, WarmMonitorSuspectsAtLastHeartbeatPlusDetectionTime) {
  // A warm monitor asks for its configured eta, but the sender may run
  // faster for another monitor: delta follows the announced eta, so the
  // horizon stays send time + T^U_D.
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  std::uint64_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  ASSERT_GT(f.fd.requested_eta(remote), msec(250));
  const time_point last = f.sim.now();
  f.fd.on_alive(f.alive(1, ++seq, msec(250)), last);
  f.sim.run_until(last + msec(999));
  EXPECT_TRUE(f.fd.is_trusted(g1, remote));
  f.sim.run_until(last + sec(1));
  EXPECT_FALSE(f.fd.is_trusted(g1, remote));
}

TEST(FdManager, ColdMonitorSendsNoRateRequest) {
  // Until the link estimate holds kMinSamples samples an unpinned monitor
  // has no say in the sender's rate; then it asks once, for the eta the
  // configurator solves from the estimate.
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  std::uint64_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
    if (f.fd.link_quality(remote).samples < kMinSamples) {
      EXPECT_TRUE(f.rate_requests.empty()) << "after ALIVE " << seq;
      EXPECT_EQ(f.fd.current_params(g1, remote).eta, duration{0});
    }
  }
  ASSERT_EQ(f.rate_requests.size(), 1u);
  const fd_params configured =
      configure(qos_spec::paper_default(), f.fd.link_quality(remote));
  EXPECT_EQ(f.rate_requests[0].first, remote);
  EXPECT_EQ(f.rate_requests[0].second, configured.eta);
  EXPECT_EQ(f.fd.current_params(g1, remote), configured);
}

TEST(FdManager, RestartedSenderIsAskedAgainOnceWarm) {
  // A new incarnation holds none of this monitor's requests: once warm
  // again, the same eta must go out, not wait out the refresh period.
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  std::uint64_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  ASSERT_EQ(f.rate_requests.size(), 1u);
  const duration asked = f.rate_requests[0].second;
  f.rate_requests.clear();
  seq = 0;
  for (int i = 0; i < 40; ++i) {
    f.fd.on_alive(f.alive(2, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
    if (f.fd.link_quality(remote).samples < kMinSamples) {
      EXPECT_TRUE(f.rate_requests.empty()) << "after ALIVE " << seq;
    }
  }
  ASSERT_EQ(f.rate_requests.size(), 1u);
  EXPECT_EQ(f.rate_requests[0].second, asked);
}

TEST(FdManager, TighterGroupDrivesRateRequest) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());  // 1 s bound
  std::uint64_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  const duration eta_loose = f.fd.requested_eta(remote);
  EXPECT_GT(eta_loose, duration{0});

  qos_spec tight;
  tight.detection_time = msec(200);
  f.fd.add_group(g2, tight);
  f.fd.on_alive(f.alive(1, ++seq, msec(250), {g1, g2}), f.sim.now());
  f.sim.run_until(f.sim.now() + sec(3));
  const duration eta_tight = f.fd.requested_eta(remote);
  EXPECT_LT(eta_tight, eta_loose)
      << "the tighter group must pull the requested rate down";
  ASSERT_FALSE(f.rate_requests.empty());
  EXPECT_EQ(f.rate_requests.back().first, remote);
}

TEST(FdManager, RateHysteresisSuppressesTinyChanges) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  std::uint64_t seq = 0;
  // Settle into a steady operating point.
  for (int i = 0; i < 80; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  const auto sent_before = f.rate_requests.size();
  for (int i = 0; i < 40; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  // Stable link, stable QoS: only periodic refreshes (<= 1 per rate_refresh
  // window), not one per reconfiguration tick.
  EXPECT_LE(f.rate_requests.size() - sent_before, 2u);
}

TEST(FdManager, DropForgetsGroupMonitor) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  f.fd.add_group(g2, qos_spec::paper_default());
  f.fd.on_alive(f.alive(1, 1, msec(250), {g1, g2}), f.sim.now());
  f.fd.drop(g1, remote);
  EXPECT_FALSE(f.fd.is_trusted(g1, remote));
  EXPECT_TRUE(f.fd.is_trusted(g2, remote));
  f.fd.drop(g2, remote);
  EXPECT_FALSE(f.fd.is_trusted(g2, remote));
  EXPECT_EQ(f.fd.monitor_count(), 0u);
}

TEST(FdManager, RemoveGroupDropsItsMonitors) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  f.fd.on_alive(f.alive(1, 1, msec(250)), f.sim.now());
  ASSERT_EQ(f.fd.monitor_count(), 1u);
  f.fd.remove_group(g1);
  EXPECT_EQ(f.fd.monitor_count(), 0u);
  EXPECT_FALSE(f.fd.is_trusted(g1, remote));
}

TEST(FdManager, PerRemoteOverrideRefinesGroupDefault) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  const node_id r2{8};
  f.fd.on_alive(f.alive(1, 1, msec(250)), f.sim.now());
  f.fd.on_alive(f.alive_from(r2, 1, 1, msec(250)), f.sim.now());

  const fd_params group_default{msec(250), msec(750), true};
  const fd_params refined{msec(100), msec(150), true};
  f.fd.set_params_override(g1, group_default);
  f.fd.set_params_override(g1, remote, refined);
  EXPECT_EQ(f.fd.current_params(g1, remote), refined);
  EXPECT_EQ(f.fd.current_params(g1, r2), group_default);

  // Updating the group default must not stomp the per-remote refinement.
  const fd_params new_default{msec(200), msec(800), true};
  f.fd.set_params_override(g1, new_default);
  EXPECT_EQ(f.fd.current_params(g1, remote), refined);
  EXPECT_EQ(f.fd.current_params(g1, r2), new_default);
  ASSERT_TRUE(f.fd.params_override(g1).has_value());
  EXPECT_EQ(*f.fd.params_override(g1), new_default);
  ASSERT_TRUE(f.fd.params_override(g1, remote).has_value());
  EXPECT_EQ(*f.fd.params_override(g1, remote), refined);

  // Clearing the refinement falls back to the group default layer.
  f.fd.clear_params_override(g1, remote);
  EXPECT_EQ(f.fd.current_params(g1, remote), new_default);
}

TEST(FdManager, PerRemoteOverrideDrivesPerRemoteRates) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  const node_id r2{8};
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250)), f.sim.now());
    f.fd.on_alive(f.alive_from(r2, 1, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  // Only the first remote's link gets the fast refinement.
  f.fd.set_params_override(g1, fd_params{msec(400), msec(600), true});
  f.fd.set_params_override(g1, remote, fd_params{msec(100), msec(200), true});
  f.sim.run_until(f.sim.now() + sec(3));  // a few reconfiguration passes
  EXPECT_EQ(f.fd.requested_eta(remote), msec(100));
  EXPECT_EQ(f.fd.requested_eta(r2), msec(400))
      << "the group default must rule remotes without a refinement";
}

TEST(FdManager, RequestedRateMinCombinesAcrossGroupsPerRemote) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  f.fd.add_group(g2, qos_spec::paper_default());
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250), {g1, g2}), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  // g1 pins this link fast, g2 slow: the remote must be asked for the min.
  f.fd.set_params_override(g1, remote, fd_params{msec(120), msec(300), true});
  f.fd.set_params_override(g2, remote, fd_params{msec(450), msec(550), true});
  f.sim.run_until(f.sim.now() + sec(3));
  EXPECT_EQ(f.fd.requested_eta(remote), msec(120));
}

TEST(FdManager, DropRenegotiatesRateImmediately) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());  // 1 s bound
  qos_spec tight;
  tight.detection_time = msec(200);
  f.fd.add_group(g2, tight);
  std::uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(50), {g1, g2}), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(50));
  }
  const duration pinned = f.fd.requested_eta(remote);
  ASSERT_GT(pinned, duration{0});
  const auto sent_before = f.rate_requests.size();

  // The member leaves the tight group: the relaxed min-combined rate must
  // go out immediately, not at the next periodic refresh (20 s away).
  f.fd.drop(g2, remote);
  const duration relaxed = f.fd.requested_eta(remote);
  EXPECT_GT(relaxed, pinned)
      << "dropping the tightest group must relax the requested rate";
  ASSERT_GT(f.rate_requests.size(), sent_before);
  EXPECT_EQ(f.rate_requests.back().first, remote);
  EXPECT_EQ(f.rate_requests.back().second, relaxed);

  // And the relaxation must survive subsequent reconfiguration passes:
  // g2 is still registered locally (other remotes may be members), but it
  // no longer monitors *this* remote, so its eta must stay out of the
  // min-combine.
  for (int i = 0; i < 10; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(50), {g1}), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(500));
  }
  EXPECT_EQ(f.fd.requested_eta(remote), relaxed)
      << "the dropped group's rate must not be re-pinned by the next pass";
}

TEST(FdManager, ClearedPlanReturnsMonitorsToTheDetectionHorizon) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  f.fd.set_params_override(g1, remote, fd_params{msec(100), msec(200), true});
  f.fd.on_alive(f.alive(1, 1, msec(100)), f.sim.now());
  f.sim.run_until(f.sim.now() + msec(299));
  EXPECT_TRUE(f.fd.is_trusted(g1, remote));
  f.sim.run_until(f.sim.now() + msec(1));
  EXPECT_FALSE(f.fd.is_trusted(g1, remote)) << "pinned: s + eta + delta";

  f.fd.clear_params_override(g1, remote);
  const time_point sent = f.sim.now();
  f.fd.on_alive(f.alive(1, 2, msec(100)), sent);
  f.sim.run_until(sent + msec(999));
  EXPECT_TRUE(f.fd.is_trusted(g1, remote)) << "unpinned: s + T^U_D";
  f.sim.run_until(sent + sec(1));
  EXPECT_FALSE(f.fd.is_trusted(g1, remote));
}

TEST(FdManager, SilentRemoteIsCollectedWithItsRefinements) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  f.fd.on_alive(f.alive(1, 1, msec(250)), f.sim.now());
  f.fd.set_params_override(g1, remote, fd_params{msec(100), msec(200), true});
  const time_point last_heard = f.sim.now();

  // Suspected long before, but kept until the GC horizon has passed.
  f.sim.run_until(last_heard + fd_manager::kMonitorGcAfter);
  EXPECT_FALSE(f.fd.is_trusted(g1, remote));
  EXPECT_EQ(f.fd.monitor_count(), 1u);
  ASSERT_TRUE(f.fd.params_override(g1, remote).has_value());

  // The first reconfiguration pass past the horizon collects it.
  f.sim.run_until(last_heard + fd_manager::kMonitorGcAfter +
                  fd_manager::kReconfigInterval);
  EXPECT_EQ(f.fd.monitor_count(), 0u);
  EXPECT_FALSE(f.fd.params_override(g1, remote).has_value())
      << "a gone node's refinement must not apply to its reincarnation";
}

TEST(FdManager, LossCountsOnlyPayloadsSentToThisReceiver) {
  // The sender alternates between ALIVEs carrying {g1, g2} (sent to the
  // members of both) and ALIVEs carrying only g2 (sent to g2's members).
  // This receiver is in g1 only, so it gets every other ALIVE: the
  // sender's datagram count and its g2 counter run twice as fast as g1's.
  fd_fixture f;
  const double floor = link_quality_estimator::kLossFloor;
  const std::size_t epoch = link_quality_estimator::kLossEpoch;
  f.fd.add_group(g1, qos_spec::paper_default());
  std::uint64_t g1_seq = 0;
  std::uint64_t g2_seq = 0;
  const auto receive_pair = [&] {
    proto::alive_msg msg = f.alive(1, 0, msec(125), {g1, g2});
    msg.groups[0].seq = ++g1_seq;
    msg.groups[1].seq = ++g2_seq;
    ++g2_seq;  // the {g2}-only ALIVE this receiver is not sent
    f.fd.on_alive(msg, f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  };
  for (std::size_t i = 0; i < 3 * epoch + epoch / 2; ++i) receive_pair();
  EXPECT_DOUBLE_EQ(f.fd.link_quality(remote).loss_probability, floor);

  // The member leaves g1 with half an epoch open; the stream resumes far
  // ahead (the sender kept numbering g1 payloads to others meanwhile).
  // The dropped epoch must not span the jump.
  f.fd.drop(g1, remote);
  g1_seq += 1000;
  for (std::size_t i = 0; i < epoch; ++i) receive_pair();
  EXPECT_DOUBLE_EQ(f.fd.link_quality(remote).loss_probability, floor);
}

TEST(FdManager, ParamsAdaptWhenLinkDegrades) {
  fd_fixture f;
  f.fd.add_group(g1, qos_spec::paper_default());
  std::uint64_t seq = 0;
  // Clean link first: heartbeats arrive instantly.
  for (int i = 0; i < 200; ++i) {
    f.fd.on_alive(f.alive(1, ++seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  const auto clean = f.fd.current_params(g1, remote);
  // Degrade: half the heartbeats vanish (sequence gaps).
  for (int i = 0; i < 400; ++i) {
    seq += 2;  // every other heartbeat lost
    f.fd.on_alive(f.alive(1, seq, msec(250)), f.sim.now());
    f.sim.run_until(f.sim.now() + msec(250));
  }
  const auto lossy = f.fd.current_params(g1, remote);
  EXPECT_LT(lossy.eta, clean.eta)
      << "heavy loss must force faster heartbeats to hold the QoS";
}

}  // namespace
}  // namespace omega::fd
