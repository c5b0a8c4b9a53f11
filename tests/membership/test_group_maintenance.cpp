// Unit tests for the Group Maintenance module: HELLO/HELLO_ACK/LEAVE
// handling, implicit membership via ALIVE, anti-entropy, eviction, and
// reincarnation — driven with a hand-cranked simulator clock.
#include <gtest/gtest.h>

#include <unordered_set>

#include "membership/group_maintenance.hpp"
#include "sim/simulator.hpp"

namespace omega::membership {
namespace {

const group_id g1{1};
const group_id g2{2};
constexpr node_id n0{0};
constexpr node_id n1{1};
constexpr node_id n2{2};

struct gm_fixture {
  sim::simulator sim;
  std::vector<proto::wire_message> broadcasts;
  std::vector<std::pair<node_id, proto::wire_message>> unicasts;
  std::vector<std::pair<std::vector<node_id>, proto::wire_message>> multicasts;
  std::vector<std::pair<group_id, member_info>> joined;
  std::vector<std::pair<group_id, member_info>> removed;
  std::unordered_set<std::uint32_t> vouched_nodes;  // FD trust by node value
  group_maintenance gm;

  gm_fixture() : gm(sim, sim, n0, /*inc=*/1, {}) {
    gm.set_broadcast([this](const proto::wire_message& m) {
      broadcasts.push_back(m);
    });
    gm.set_unicast([this](node_id dst, const proto::wire_message& m) {
      unicasts.emplace_back(dst, m);
    });
    gm.set_multicast(
        [this](const std::vector<node_id>& dsts, const proto::wire_message& m) {
          multicasts.emplace_back(dsts, m);
        });
    gm.set_cluster_roster({n0, n1, n2});
    gm.set_vouch([this](group_id, const member_info& m) {
      return vouched_nodes.count(m.node.value()) > 0;
    });
    gm.set_events(group_maintenance::events{
        .on_member_joined =
            [this](group_id g, const member_info& m) {
              joined.emplace_back(g, m);
            },
        .on_member_removed =
            [this](group_id g, const member_info& m) {
              removed.emplace_back(g, m);
            },
        .on_member_reincarnated = nullptr,
    });
    gm.start();
  }

  proto::hello_msg hello_from(node_id node, incarnation inc, group_id g,
                              process_id pid, bool reply = false) {
    proto::hello_msg msg;
    msg.from = node;
    msg.inc = inc;
    msg.reply_requested = reply;
    msg.entries.push_back({g, pid, true});
    return msg;
  }
};

TEST(GroupMaintenance, LocalJoinBroadcastsHello) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  ASSERT_FALSE(f.broadcasts.empty());
  const auto* hello = std::get_if<proto::hello_msg>(&f.broadcasts.back());
  ASSERT_NE(hello, nullptr);
  EXPECT_TRUE(hello->reply_requested);
  ASSERT_EQ(hello->entries.size(), 1u);
  EXPECT_EQ(hello->entries[0].group, g1);
}

TEST(GroupMaintenance, LocalJoinAppearsInTable) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  EXPECT_TRUE(f.gm.table(g1).find(process_id{0}) != nullptr);
  EXPECT_EQ(f.gm.local_member(g1)->pid, process_id{0});
  EXPECT_EQ(f.gm.groups().size(), 1u);
}

TEST(GroupMaintenance, HelloAddsRemoteMember) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  const auto* m = f.gm.table(g1).find(process_id{1});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->node, n1);
  EXPECT_EQ(f.joined.size(), 2u);  // self + remote
}

TEST(GroupMaintenance, HelloForUnknownGroupIgnored) {
  // A node that never joined g2 must not start tracking it just because a
  // peer mentioned it (the peer's snapshot means nothing to us here).
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g2, process_id{1}), f.sim.now());
  EXPECT_EQ(f.gm.table(g2).members().size(), 0u);
}

TEST(GroupMaintenance, ReplyRequestedHelloGetsSnapshotAck) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}, /*reply=*/true),
                f.sim.now());
  ASSERT_FALSE(f.unicasts.empty());
  EXPECT_EQ(f.unicasts.back().first, n1);
  const auto* ack =
      std::get_if<proto::hello_ack_msg>(&f.unicasts.back().second);
  ASSERT_NE(ack, nullptr);
  // The snapshot must mention both us and the newly learned member.
  EXPECT_EQ(ack->entries.size(), 2u);
}

TEST(GroupMaintenance, PeriodicHelloIsAntiEntropy) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.sim.run_until(f.sim.now() + sec(10));
  ASSERT_GE(f.multicasts.size(), 4u) << "periodic HELLO must keep going out";
  for (const auto& [dsts, msg] : f.multicasts) {
    EXPECT_EQ(dsts, (std::vector<node_id>{n1, n2}));  // the roster but self
    EXPECT_NE(std::get_if<proto::hello_msg>(&msg), nullptr);
  }
}

TEST(GroupMaintenance, HelloAckPopulatesMembership) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  proto::hello_ack_msg ack;
  ack.from = n1;
  ack.inc = 1;
  ack.entries.push_back({g1, process_id{1}, n1, 1, true});
  ack.entries.push_back({g1, process_id{2}, n2, 3, false});
  f.gm.on_hello_ack(ack, f.sim.now());
  EXPECT_NE(f.gm.table(g1).find(process_id{1}), nullptr);
  const auto* p2 = f.gm.table(g1).find(process_id{2});
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->inc, 3u);
  EXPECT_FALSE(p2->candidate);
}

TEST(GroupMaintenance, AliveIsImplicitMembership) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  proto::alive_msg alive;
  alive.from = n2;
  alive.inc = 2;
  proto::group_payload p;
  p.group = g1;
  p.pid = process_id{2};
  p.candidate = true;
  p.competing = true;
  alive.groups.push_back(p);
  f.gm.on_alive(alive, f.sim.now());
  const auto* m = f.gm.table(g1).find(process_id{2});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->inc, 2u);
}

TEST(GroupMaintenance, LeaveRemovesMember) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  ASSERT_NE(f.gm.table(g1).find(process_id{1}), nullptr);

  proto::leave_msg leave;
  leave.from = n1;
  leave.inc = 1;
  leave.group = g1;
  leave.pid = process_id{1};
  f.gm.on_leave(leave);
  EXPECT_EQ(f.gm.table(g1).find(process_id{1}), nullptr);
  ASSERT_FALSE(f.removed.empty());
  EXPECT_EQ(f.removed.back().second.pid, process_id{1});
}

TEST(GroupMaintenance, StaleLeaveIgnored) {
  // A LEAVE from an older incarnation must not remove the live member.
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 3, g1, process_id{1}), f.sim.now());

  proto::leave_msg leave;
  leave.from = n1;
  leave.inc = 2;  // previous life
  leave.group = g1;
  leave.pid = process_id{1};
  f.gm.on_leave(leave);
  EXPECT_NE(f.gm.table(g1).find(process_id{1}), nullptr);
}

TEST(GroupMaintenance, LocalLeaveBroadcastsAndForgets) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.broadcasts.clear();
  f.gm.local_leave(g1, process_id{0});
  ASSERT_FALSE(f.broadcasts.empty());
  EXPECT_NE(std::get_if<proto::leave_msg>(&f.broadcasts.front()), nullptr);
  EXPECT_EQ(f.gm.local_member(g1), std::nullopt);
}

TEST(GroupMaintenance, SilentMemberEvictedAfterTimeout) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  // The FD does not vouch for n1 (vouched_nodes empty) and it sends
  // nothing: it must still be there inside the 30 s eviction window and
  // gone after it (+ one 2 s sweep period).
  f.sim.run_until(f.sim.now() + sec(25));
  EXPECT_NE(f.gm.table(g1).find(process_id{1}), nullptr);
  f.sim.run_until(f.sim.now() + sec(10));
  EXPECT_EQ(f.gm.table(g1).find(process_id{1}), nullptr);
}

TEST(GroupMaintenance, VouchedMemberSurvivesSilence) {
  // Omega_l followers are silent by design; the FD's node-level trust must
  // keep them from being evicted.
  gm_fixture f;
  f.vouched_nodes.insert(n1.value());
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  f.sim.run_until(f.sim.now() + sec(90));
  EXPECT_NE(f.gm.table(g1).find(process_id{1}), nullptr);
}

TEST(GroupMaintenance, RefreshPreventsEviction) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  // Four refreshes 20 s apart span 80 s, well past the 30 s eviction
  // window, but no gap reaches it.
  for (int i = 0; i < 4; ++i) {
    f.sim.run_until(f.sim.now() + sec(20));
    f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  }
  EXPECT_NE(f.gm.table(g1).find(process_id{1}), nullptr);
}

TEST(GroupMaintenance, ReincarnationReplacesOldEntry) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  f.removed.clear();
  // Same process re-joins with a higher incarnation (after a crash).
  f.gm.on_hello(f.hello_from(n1, 2, g1, process_id{1}), f.sim.now());
  const auto* m = f.gm.table(g1).find(process_id{1});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->inc, 2u);
  // The old incarnation was removed on the way.
  ASSERT_EQ(f.removed.size(), 1u);
  EXPECT_EQ(f.removed[0].second.inc, 1u);
}

TEST(GroupMaintenance, StaleIncarnationHelloIgnored) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 5, g1, process_id{1}), f.sim.now());
  f.gm.on_hello(f.hello_from(n1, 4, g1, process_id{1}), f.sim.now());
  EXPECT_EQ(f.gm.table(g1).find(process_id{1})->inc, 5u);
}

TEST(GroupMaintenance, MultipleGroupsTrackedIndependently) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.local_join(g2, process_id{0}, false);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  EXPECT_EQ(f.gm.table(g1).members().size(), 2u);
  EXPECT_EQ(f.gm.table(g2).members().size(), 1u);
  EXPECT_FALSE(f.gm.local_member(g2)->candidate);
}

TEST(GroupMaintenance, StopSilencesPeriodicHello) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.stop();
  const auto before = f.broadcasts.size();
  f.sim.run_until(f.sim.now() + sec(30));
  EXPECT_EQ(f.broadcasts.size(), before);
  EXPECT_TRUE(f.multicasts.empty());
}

}  // namespace
}  // namespace omega::membership
