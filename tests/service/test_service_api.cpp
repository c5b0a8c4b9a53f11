// Service-layer API tests: registration, join/leave semantics, notification
// modes, multi-group multiplexing, and the heartbeat engine's behaviour —
// all on a small simulated cluster.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "election/omega_l.hpp"
#include "net/sim_network.hpp"
#include "proto/wire.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"

namespace omega::service {
namespace {

struct cluster {
  explicit cluster(std::size_t n,
                   election::algorithm alg = election::algorithm::omega_lc,
                   net::link_profile links = net::link_profile::lan())
      : net(sim, n, links, rng{11}) {
    for (std::size_t i = 0; i < n; ++i) roster.push_back(node_id{i});
    for (std::size_t i = 0; i < n; ++i) {
      service_config cfg;
      cfg.self = node_id{i};
      cfg.roster = roster;
      cfg.alg = alg;
      services.push_back(std::make_unique<leader_election_service>(
          sim, sim, net.endpoint(node_id{i}), cfg));
    }
  }

  leader_election_service& at(std::size_t i) { return *services[i]; }
  void settle(duration d = sec(5)) { sim.run_until(sim.now() + d); }

  sim::simulator sim;
  net::sim_network net;
  std::vector<node_id> roster;
  std::vector<std::unique_ptr<leader_election_service>> services;
};

const group_id g1{1};
const group_id g2{2};

TEST(ServiceApi, RegisterRejectsDuplicates) {
  cluster c(1);
  EXPECT_TRUE(c.at(0).register_process(process_id{0}));
  EXPECT_FALSE(c.at(0).register_process(process_id{0}));
}

TEST(ServiceApi, JoinRequiresRegistration) {
  cluster c(1);
  EXPECT_FALSE(c.at(0).join_group(process_id{0}, g1, {}));
  c.at(0).register_process(process_id{0});
  EXPECT_TRUE(c.at(0).join_group(process_id{0}, g1, {}));
}

TEST(ServiceApi, SecondLocalJoinToSameGroupRejected) {
  cluster c(1);
  c.at(0).register_process(process_id{0});
  c.at(0).register_process(process_id{100});
  EXPECT_TRUE(c.at(0).join_group(process_id{0}, g1, {}));
  EXPECT_FALSE(c.at(0).join_group(process_id{100}, g1, {}));
}

TEST(ServiceApi, LeaderQueryUnknownGroupIsEmpty) {
  cluster c(1);
  EXPECT_EQ(c.at(0).leader(group_id{99}), std::nullopt);
}

TEST(ServiceApi, SingleNodeElectsItself) {
  cluster c(1);
  c.at(0).register_process(process_id{0});
  c.at(0).join_group(process_id{0}, g1, {});
  c.settle();
  EXPECT_EQ(c.at(0).leader(g1), process_id{0});
}

TEST(ServiceApi, ThreeNodesAgree) {
  cluster c(3);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle();
  const auto leader = c.at(0).leader(g1);
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(c.at(1).leader(g1), leader);
  EXPECT_EQ(c.at(2).leader(g1), leader);
}

TEST(ServiceApi, InterruptModeFiresOnChanges) {
  cluster c(2);
  int fired = 0;
  std::optional<process_id> last;
  c.at(0).register_process(process_id{0});
  c.at(0).join_group(process_id{0}, g1, {},
                     [&](group_id g, std::optional<process_id> leader) {
                       EXPECT_EQ(g, g1);
                       ++fired;
                       last = leader;
                     });
  c.at(1).register_process(process_id{1});
  c.at(1).join_group(process_id{1}, g1, {});
  c.settle();
  EXPECT_GT(fired, 0);
  EXPECT_TRUE(last.has_value());
}

TEST(ServiceApi, NonCandidateFollowsButNeverLeads) {
  cluster c(3);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    join_options opts;
    opts.candidate = i != 0;  // process 0 is a passive listener
    c.at(i).join_group(process_id{i}, g1, opts);
  }
  c.settle();
  const auto leader = c.at(0).leader(g1);
  ASSERT_TRUE(leader.has_value());
  EXPECT_NE(*leader, process_id{0});
}

TEST(ServiceApi, LeaveGroupStopsParticipation) {
  cluster c(3);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle();
  const auto leader = c.at(0).leader(g1);
  ASSERT_TRUE(leader.has_value());

  // The leader's process leaves voluntarily.
  const std::size_t idx = leader->value();
  c.at(idx).leave_group(process_id{idx}, g1);
  c.settle();

  for (std::size_t i = 0; i < 3; ++i) {
    if (i == idx) {
      EXPECT_EQ(c.at(i).leader(g1), std::nullopt);
      continue;
    }
    const auto l = c.at(i).leader(g1);
    ASSERT_TRUE(l.has_value());
    EXPECT_NE(*l, *leader) << "departed process still leads";
  }
}

TEST(ServiceApi, UnregisterLeavesAllGroups) {
  cluster c(2);
  c.at(0).register_process(process_id{0});
  c.at(0).join_group(process_id{0}, g1, {});
  c.at(0).join_group(process_id{0}, g2, {});
  c.at(1).register_process(process_id{1});
  c.at(1).join_group(process_id{1}, g1, {});
  c.at(1).join_group(process_id{1}, g2, {});
  c.settle();

  c.at(0).unregister_process(process_id{0});
  c.settle();
  EXPECT_EQ(c.at(0).leader(g1), std::nullopt);
  EXPECT_EQ(c.at(0).leader(g2), std::nullopt);
  EXPECT_EQ(c.at(1).leader(g1), process_id{1});
  EXPECT_EQ(c.at(1).leader(g2), process_id{1});
}

TEST(ServiceApi, GroupsAreIndependent) {
  // Different candidate sets per group on the same nodes.
  cluster c(3);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    join_options o1;
    o1.candidate = (i == 1);
    c.at(i).join_group(process_id{i}, g1, o1);
    join_options o2;
    o2.candidate = (i == 2);
    c.at(i).join_group(process_id{i}, g2, o2);
  }
  c.settle();
  EXPECT_EQ(c.at(0).leader(g1), process_id{1});
  EXPECT_EQ(c.at(0).leader(g2), process_id{2});
}

TEST(ServiceApi, MultipleGroupsShareOneHeartbeatStream) {
  // The shared-FD architecture: joining a second group must not double the
  // ALIVE rate (payloads are multiplexed onto the node-level stream).
  cluster c(2, election::algorithm::omega_lc);
  for (std::size_t i = 0; i < 2; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(30));
  const auto one_group = c.at(0).stats().alive_sent;

  for (std::size_t i = 0; i < 2; ++i) {
    c.at(i).join_group(process_id{i}, g2, {});
  }
  c.settle(sec(30));
  const auto two_groups = c.at(0).stats().alive_sent - one_group;

  // Equal windows: the second window's count must stay well below 2x the
  // first (allow 1.5x for the join-time extra announcements).
  EXPECT_LT(two_groups, one_group * 3 / 2)
      << "second group should ride the same ALIVE stream";
}

TEST(ServiceApi, AliveCarriesOnlyThePayloadsOfSharedGroups) {
  // Node 0 shares g1 with nodes 1 and 4, g2 with nodes 2 and 5, and both
  // with node 3. Each of its ticks must give every destination one ALIVE
  // carrying the payloads of exactly the groups they share, encoded once
  // per payload set. Node 1 is in g1 only: one payload, to its g1 peers,
  // one encoding per tick.
  cluster c(6);
  const std::vector<std::vector<group_id>> joins = {
      {g1, g2}, {g1}, {g2}, {g1, g2}, {g1}, {g2}};
  for (std::size_t i = 0; i < joins.size(); ++i) {
    c.at(i).register_process(process_id{i});
    for (const group_id g : joins[i]) c.at(i).join_group(process_id{i}, g, {});
  }
  c.settle(sec(10));

  // (sender, destination) -> payload group sets seen; (sender, send time,
  // (group, seq) list) -> buffers the tick's datagrams were sealed in.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::set<std::set<std::uint32_t>>>
      carried;
  std::map<std::tuple<std::uint32_t, time_point,
                      std::set<std::pair<std::uint32_t, std::uint64_t>>>,
           std::set<const std::byte*>>
      encodings;
  c.net.set_send_tap([&](node_id from, node_id to, std::span<const std::byte> bytes) {
    if (from.value() > 1) return;
    const auto msg = proto::decode(bytes);
    const auto* alive = msg ? std::get_if<proto::alive_msg>(&*msg) : nullptr;
    if (alive == nullptr) return;
    std::set<std::uint32_t> groups;
    std::set<std::pair<std::uint32_t, std::uint64_t>> streams;
    for (const auto& p : alive->groups) {
      groups.insert(p.group.value());
      streams.emplace(p.group.value(), p.seq);
    }
    carried[{from.value(), to.value()}].insert(groups);
    encodings[{from.value(), alive->send_time, streams}].insert(bytes.data());
  });
  c.settle(sec(10));
  c.net.set_send_tap({});

  using sets = std::set<std::set<std::uint32_t>>;
  const std::map<std::pair<std::uint32_t, std::uint32_t>, sets> expected = {
      {{0, 1}, sets{{1}}}, {{0, 2}, sets{{2}}}, {{0, 3}, sets{{1, 2}}},
      {{0, 4}, sets{{1}}}, {{0, 5}, sets{{2}}},
      {{1, 0}, sets{{1}}}, {{1, 3}, sets{{1}}}, {{1, 4}, sets{{1}}}};
  EXPECT_EQ(carried, expected);
  ASSERT_FALSE(encodings.empty());
  for (const auto& [tick, buffers] : encodings) {
    EXPECT_EQ(buffers.size(), 1u)
        << "node " << std::get<0>(tick) << " encoded one payload set "
        << buffers.size() << " times at " << to_string(std::get<1>(tick));
  }
}

TEST(ServiceApi, MalformedDatagramsCountedNotFatal) {
  cluster c(2);
  c.at(0).register_process(process_id{0});
  c.at(0).join_group(process_id{0}, g1, {});
  c.at(1).register_process(process_id{1});
  c.at(1).join_group(process_id{1}, g1, {});

  // Inject garbage directly into node 0's endpoint.
  const std::vector<std::byte> junk = {std::byte{0xFF}, std::byte{0x00},
                                       std::byte{0xAB}};
  c.net.endpoint(node_id{1}).send(node_id{0}, junk);
  c.settle();
  EXPECT_GE(c.at(0).stats().malformed_received, 1u);
  EXPECT_EQ(c.at(0).leader(g1), c.at(1).leader(g1));
}

TEST(ServiceApi, EtaRespondsToQoS) {
  // A tighter detection bound must drive a faster heartbeat cadence.
  cluster loose(2);
  cluster tight(2);
  for (std::size_t i = 0; i < 2; ++i) {
    loose.at(i).register_process(process_id{i});
    join_options lo;
    lo.qos.detection_time = sec(2);
    loose.at(i).join_group(process_id{i}, g1, lo);

    tight.at(i).register_process(process_id{i});
    join_options to;
    to.qos.detection_time = msec(200);
    tight.at(i).join_group(process_id{i}, g1, to);
  }
  loose.settle(sec(60));
  tight.settle(sec(60));
  EXPECT_LT(tight.at(0).current_eta(), loose.at(0).current_eta());
}

TEST(ServiceApi, FasterRateRequestNeverPostponesThePendingHeartbeat) {
  // A RATE_REQ for a faster rate can arrive when the new interval has
  // already elapsed since the last ALIVE. Re-arming one new interval from
  // now would push the heartbeat past the one already pending, and a steady
  // stream of such requests would silence the sender until every monitor
  // suspected it at once.
  cluster c(3);
  for (std::size_t i = 0; i < 2; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(10));
  const duration announced = c.at(0).current_eta();
  const duration faster = announced / 2;

  // Step (in 1 ms steps, the resolution of every time below) to one of
  // node 0's ALIVEs, then three quarters of the announced interval on:
  // past the faster interval, before the pending heartbeat.
  std::uint64_t sent = c.at(0).stats().alive_sent;
  while (c.at(0).stats().alive_sent == sent) c.sim.run_until(c.sim.now() + msec(1));
  sent = c.at(0).stats().alive_sent;
  time_point last_alive = c.sim.now();
  c.sim.run_until(c.sim.now() + announced * 3 / 4);

  // Node 2 (in the roster, in no group) asks for `faster` twice per
  // `faster`; node 0 must keep heartbeating within its announced interval.
  net::transport& requester = c.net.endpoint(node_id{2});
  const proto::wire_message request{proto::rate_request_msg{node_id{2}, 0, faster}};
  const time_point start = c.sim.now();
  duration longest_gap{0};
  time_point next_request = start;
  while (c.sim.now() < start + sec(5)) {
    if (c.sim.now() >= next_request) {
      requester.send(node_id{0}, proto::encode_shared(request, requester.pool()));
      next_request += faster / 2;
    }
    c.sim.run_until(c.sim.now() + msec(1));
    if (c.at(0).stats().alive_sent != sent) {
      sent = c.at(0).stats().alive_sent;
      longest_gap = std::max(longest_gap, c.sim.now() - last_alive);
      last_alive = c.sim.now();
    }
  }
  longest_gap = std::max(longest_gap, c.sim.now() - last_alive);
  EXPECT_LE(longest_gap, announced + msec(1)) << "rate requests silenced node 0";
  EXPECT_EQ(c.at(0).current_eta(), faster);
}

TEST(ServiceApi, StatsCountTraffic) {
  cluster c(2);
  for (std::size_t i = 0; i < 2; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(10));
  EXPECT_GT(c.at(0).stats().alive_sent, 0u);
  EXPECT_GT(c.at(0).stats().hello_sent, 0u);
  EXPECT_GT(c.at(0).stats().datagrams_received, 0u);
  EXPECT_EQ(c.at(0).stats().malformed_received, 0u);
}

TEST(ServiceApi, OmegaLFollowersFallSilent) {
  // Communication efficiency end-to-end: after settling, only the S3 leader
  // keeps producing ALIVEs.
  cluster c(3, election::algorithm::omega_l);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(30));
  const auto leader = c.at(0).leader(g1);
  ASSERT_TRUE(leader.has_value());

  std::vector<std::uint64_t> before(3), after(3);
  for (std::size_t i = 0; i < 3; ++i) before[i] = c.at(i).stats().alive_sent;
  c.settle(sec(30));
  for (std::size_t i = 0; i < 3; ++i) after[i] = c.at(i).stats().alive_sent;

  for (std::size_t i = 0; i < 3; ++i) {
    const auto delta = after[i] - before[i];
    if (process_id{i} == *leader) {
      EXPECT_GT(delta, 10u) << "leader must keep heartbeating";
    } else {
      EXPECT_LE(delta, 2u) << "follower " << i << " should be silent";
    }
  }
}

TEST(ServiceApi, OmegaLcEveryoneKeepsSending) {
  cluster c(3, election::algorithm::omega_lc);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(30));
  std::vector<std::uint64_t> before(3);
  for (std::size_t i = 0; i < 3; ++i) before[i] = c.at(i).stats().alive_sent;
  c.settle(sec(30));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(c.at(i).stats().alive_sent - before[i], 10u)
        << "S2 node " << i << " must keep broadcasting";
  }
}

TEST(ServiceApi, LeaveLastGroupSilencesNode) {
  cluster c(2);
  for (std::size_t i = 0; i < 2; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(10));
  c.at(0).leave_group(process_id{0}, g1);
  c.settle(sec(1));
  const auto sent = c.at(0).stats().alive_sent;
  c.settle(sec(30));
  EXPECT_EQ(c.at(0).stats().alive_sent, sent)
      << "a node with no groups must not heartbeat";
}

TEST(ServiceApi, SetCandidacyFlipsInPlaceWithoutLosingTheLeaderView) {
  // The in-place candidacy change (what the hierarchy coordinator uses for
  // promotion/demotion): the group view must survive the flip — no
  // transient leaderless window, unlike a leave + re-join — and a fresh
  // candidate must rank behind the established leader.
  cluster c(3, election::algorithm::omega_l);
  for (std::size_t i = 0; i < 3; ++i) c.at(i).register_process(process_id{i});
  join_options candidate_join;
  c.at(0).join_group(process_id{0}, g1, candidate_join);
  c.settle(sec(2));
  c.at(1).join_group(process_id{1}, g1, candidate_join);
  join_options listener_join;
  listener_join.candidate = false;
  c.at(2).join_group(process_id{2}, g1, listener_join);
  c.settle(sec(10));
  const auto leader = c.at(2).leader(g1);
  ASSERT_TRUE(leader.has_value());
  ASSERT_EQ(*leader, process_id{0});  // earliest accusation time wins

  // set_candidacy on an unjoined group / wrong pid is rejected.
  EXPECT_FALSE(c.at(2).set_candidacy(process_id{2}, g2, true));
  EXPECT_FALSE(c.at(2).set_candidacy(process_id{9}, g1, true));

  // Promotion keeps the current view at the very instant of the flip...
  ASSERT_TRUE(c.at(2).set_candidacy(process_id{2}, g1, true));
  EXPECT_EQ(c.at(2).leader(g1), leader)
      << "in-place promotion must not reset the leader view";
  EXPECT_TRUE(c.at(2).elector_for(g1)->is_candidate());
  // ...and the fresh candidate never displaces the established leader.
  c.settle(sec(15));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(c.at(i).leader(g1), leader);

  // Demotion back to listener: view intact, candidacy off everywhere.
  ASSERT_TRUE(c.at(2).set_candidacy(process_id{2}, g1, false));
  EXPECT_EQ(c.at(2).leader(g1), leader);
  c.settle(sec(5));
  const auto* m = c.at(0).members(g1).find(process_id{2});
  ASSERT_NE(m, nullptr);
  EXPECT_FALSE(m->candidate) << "demotion must propagate to peer tables";
}

TEST(ServiceApi, OmegaLcMembersOutliveEvictionWithoutPeriodicHellos) {
  // Every Omega_lc member heartbeats its whole table, and each ALIVE payload
  // is first-hand membership evidence, so once the tables are full no
  // periodic HELLO goes out, yet nobody is evicted.
  cluster c(3, election::algorithm::omega_lc);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
  }
  c.settle(sec(10));
  std::uint64_t hellos = 0;
  c.net.set_send_tap([&](node_id, node_id, std::span<const std::byte> bytes) {
    hellos += proto::peek_kind(bytes) == proto::msg_kind::hello;
  });
  c.settle(membership::group_maintenance::kEvictionAfter + sec(10));
  c.net.set_send_tap({});

  EXPECT_EQ(hellos, 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.at(i).members(g1).size(), 3u) << "node " << i;
    EXPECT_EQ(c.at(i).leader(g1), c.at(0).leader(g1)) << "node " << i;
  }
}

TEST(ServiceApi, WithdrawalOvertakenByItsOwnEntryReAddsNoContender) {
  // An Omega_l competition entry and its withdrawal leave the sender back
  // to back, and the network may deliver the withdrawal first. The entry's
  // older payload must not re-add the withdrawn contender: the receiver
  // would follow it, then accuse the live process T_D after its last
  // payload.
  cluster c(2, election::algorithm::omega_l);
  c.services[1].reset();  // node 1's datagrams are written by hand below
  c.settle(sec(1));
  c.at(0).register_process(process_id{0});
  c.at(0).join_group(process_id{0}, g1, {});
  c.settle(sec(2));
  ASSERT_EQ(c.at(0).leader(g1), process_id{0});

  net::transport& node1 = c.net.endpoint(node_id{1});
  const auto send = [&](const proto::wire_message& msg) {
    node1.send(node_id{0}, proto::encode(msg));
    c.sim.run_until(c.sim.now() + msec(50));
  };
  send(proto::hello_msg{node_id{1}, 1, false, {{g1, process_id{1}, true}}});
  proto::alive_msg entry;
  entry.from = node_id{1};
  entry.inc = 1;
  entry.send_time = c.sim.now();
  entry.eta = msec(250);
  // Accused before node 0 joined: it outranks node 0 while it competes.
  entry.groups.push_back({.group = g1,
                          .seq = 1,
                          .pid = process_id{1},
                          .candidate = true,
                          .competing = true,
                          .accusation_time = time_origin,
                          .phase = 1});
  proto::alive_msg withdrawal = entry;
  withdrawal.groups.front().seq = 2;
  withdrawal.groups.front().competing = false;
  send(withdrawal);
  send(entry);

  EXPECT_EQ(c.at(0).leader(g1), process_id{0});
  auto* elector = dynamic_cast<election::omega_l*>(c.at(0).elector_for(g1));
  ASSERT_NE(elector, nullptr);
  EXPECT_TRUE(elector->competing());
  c.settle(fd::qos_spec{}.detection_time + sec(1));
  EXPECT_EQ(c.at(0).stats().accuse_sent, 0u);
  EXPECT_EQ(c.at(0).leader(g1), process_id{0});
}

TEST(ServiceApi, DemotedLeaderWithdrawsGracefully) {
  cluster c(3, election::algorithm::omega_l);
  for (std::size_t i = 0; i < 3; ++i) {
    c.at(i).register_process(process_id{i});
    c.at(i).join_group(process_id{i}, g1, {});
    c.settle(sec(1));
  }
  c.settle(sec(10));
  ASSERT_EQ(c.at(1).leader(g1), process_id{0});

  // Demote the sitting leader: its graceful-withdrawal heartbeat hands the
  // group to the next-ranked candidate within a couple of deliveries, and
  // the demoted process follows the successor as a plain member.
  ASSERT_TRUE(c.at(0).set_candidacy(process_id{0}, g1, false));
  c.settle(sec(5));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.at(i).leader(g1), process_id{1}) << "node " << i;
  }
}

}  // namespace
}  // namespace omega::service
