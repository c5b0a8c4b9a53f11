#include "fd/heartbeat_monitor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace omega::fd {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  sim::simulator sim;
  std::vector<bool> transitions;

  /// A monitor with a 1 s detection bound.
  std::unique_ptr<heartbeat_monitor> make_unpinned() {
    return std::make_unique<heartbeat_monitor>(
        sim, sim, sec(1), [this](bool trusted) { transitions.push_back(trusted); });
  }

  /// A monitor whose delta a tuning plan pinned.
  std::unique_ptr<heartbeat_monitor> make(duration delta) {
    auto m = make_unpinned();
    m->set_delta(delta);
    return m;
  }
};

TEST_F(MonitorTest, FirstHeartbeatEstablishesTrust) {
  auto m = make(msec(500));
  EXPECT_FALSE(m->trusted());
  m->on_heartbeat(sim.now(), msec(250));
  EXPECT_TRUE(m->trusted());
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_TRUE(transitions[0]);
}

TEST_F(MonitorTest, SuspectsAfterFreshnessExpires) {
  auto m = make(msec(500));
  m->on_heartbeat(sim.now(), msec(250));
  // Freshness: send + eta + delta = 750ms.
  sim.run_until(time_origin + msec(749));
  EXPECT_TRUE(m->trusted());
  sim.run_until(time_origin + msec(751));
  EXPECT_FALSE(m->trusted());
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_FALSE(transitions[1]);
}

TEST_F(MonitorTest, SteadyHeartbeatsNeverSuspect) {
  auto m = make(msec(500));
  for (int i = 0; i <= 40; ++i) {
    m->on_heartbeat(sim.now(), msec(250));
    sim.run_until(time_origin + msec(250) * (i + 1));
  }
  EXPECT_TRUE(m->trusted());
  EXPECT_EQ(transitions.size(), 1u);  // only the initial trust
}

TEST_F(MonitorTest, RecoversTrustOnLateHeartbeat) {
  auto m = make(msec(100));
  m->on_heartbeat(sim.now(), msec(100));
  sim.run_until(time_origin + msec(500));
  EXPECT_FALSE(m->trusted());
  m->on_heartbeat(sim.now(), msec(100));
  EXPECT_TRUE(m->trusted());
  ASSERT_EQ(transitions.size(), 3u);  // trust, suspect, trust
}

TEST_F(MonitorTest, StaleHeartbeatCannotRestoreTrust) {
  auto m = make(msec(100));
  m->on_heartbeat(sim.now(), msec(100));
  sim.run_until(time_origin + sec(10));
  EXPECT_FALSE(m->trusted());
  // A heartbeat that was sent long ago (freshness already passed) is noise.
  m->on_heartbeat(time_origin + msec(50), msec(100));
  EXPECT_FALSE(m->trusted());
}

TEST_F(MonitorTest, ReorderedHeartbeatsKeepLatestDeadline) {
  auto m = make(msec(200));
  m->on_heartbeat(time_origin, msec(100));  // deadline 300ms
  const time_point d1 = m->deadline();
  // An older heartbeat arrives late; deadline must not regress.
  m->on_heartbeat(time_origin - msec(50), msec(100));
  EXPECT_EQ(m->deadline(), d1);
}

TEST_F(MonitorTest, SenderRateChangePropagatesToDeadline) {
  auto m = make(msec(500));
  m->on_heartbeat(sim.now(), msec(250));
  EXPECT_EQ(m->deadline(), time_origin + msec(750));
  sim.run_until(time_origin + msec(100));
  m->on_heartbeat(sim.now(), msec(1000));  // sender slowed down
  EXPECT_EQ(m->deadline(), time_origin + msec(100) + msec(1500));
}

TEST_F(MonitorTest, DeltaUpdateAffectsSubsequentHeartbeats) {
  auto m = make(msec(500));
  m->on_heartbeat(sim.now(), msec(100));
  m->set_delta(msec(900));
  sim.run_until(time_origin + msec(50));
  m->on_heartbeat(sim.now(), msec(100));
  EXPECT_EQ(m->deadline(), time_origin + msec(50) + msec(1000));
}

TEST_F(MonitorTest, UnpinnedMonitorTrustsUntilSendPlusDetectionTime) {
  // delta = T^U_D - eta: whatever interval the sender announces, a
  // heartbeat sent at s is fresh until s + 1 s.
  for (const duration eta : {msec(250), msec(490), msec(990)}) {
    auto m = make_unpinned();
    const time_point sent = sim.now();
    m->on_heartbeat(sent, eta);
    EXPECT_EQ(m->deadline(), sent + sec(1)) << "eta " << to_seconds(eta);
    sim.run_until(sent + msec(999));
    EXPECT_TRUE(m->trusted());
    sim.run_until(sent + sec(1));
    EXPECT_FALSE(m->trusted());
  }
}

TEST_F(MonitorTest, ClearedPinReturnsToTheDetectionHorizon) {
  auto m = make(msec(900));
  m->on_heartbeat(sim.now(), msec(250));
  EXPECT_EQ(m->deadline(), time_origin + msec(1150));
  m->set_delta(std::nullopt);
  sim.run_until(time_origin + msec(500));
  m->on_heartbeat(sim.now(), msec(250));
  EXPECT_EQ(m->deadline(), time_origin + msec(1500));
}

TEST_F(MonitorTest, SuspectExactlyOncePerSilence) {
  auto m = make(msec(100));
  m->on_heartbeat(sim.now(), msec(100));
  sim.run_until(time_origin + sec(60));
  int suspects = 0;
  for (bool t : transitions) {
    if (!t) ++suspects;
  }
  EXPECT_EQ(suspects, 1);
}

TEST_F(MonitorTest, DestructionCancelsTimer) {
  auto m = make(msec(100));
  m->on_heartbeat(sim.now(), msec(100));
  m.reset();
  sim.run_until(time_origin + sec(10));  // must not crash / fire callbacks
  EXPECT_EQ(transitions.size(), 1u);
}

}  // namespace
}  // namespace omega::fd
