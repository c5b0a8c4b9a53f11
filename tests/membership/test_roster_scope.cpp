// Roster-scoped dissemination unit tests: scoped HELLO destination sets
// (union of shared-group rosters for candidates, candidate hosts for
// listeners), cluster-wide join bootstrap, discovery probes, scoped LEAVE,
// and the `hello_fanout::all` regression guard (flat deployments must see
// byte-identical traffic).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "membership/group_maintenance.hpp"
#include "proto/wire.hpp"
#include "sim/simulator.hpp"

namespace omega::membership {
namespace {

const group_id g1{1};
const group_id g2{2};
constexpr node_id n0{0};
constexpr node_id n1{1};
constexpr node_id n2{2};
constexpr node_id n3{3};
constexpr node_id n4{4};
constexpr node_id n5{5};

struct scoped_fixture {
  sim::simulator sim;
  std::vector<proto::wire_message> broadcasts;
  std::vector<std::pair<node_id, proto::wire_message>> unicasts;
  std::vector<std::pair<std::vector<node_id>, proto::wire_message>> multicasts;
  group_maintenance gm;

  explicit scoped_fixture(group_maintenance::options opts = roster_options())
      : gm(sim, sim, n0, /*inc=*/1, opts) {
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
    gm.set_cluster_roster({n0, n1, n2, n3, n4, n5});
    gm.start();
  }

  static group_maintenance::options roster_options() {
    group_maintenance::options opts;
    opts.fanout = hello_fanout::roster;
    return opts;
  }

  void add_member(group_id g, node_id node, process_id pid, bool candidate) {
    proto::hello_msg msg;
    msg.from = node;
    msg.inc = 1;
    msg.entries.push_back({g, pid, candidate});
    gm.on_hello(msg, sim.now());
  }

  /// Runs one anti-entropy sweep and returns the scoped HELLOs it emitted
  /// (probe HELLOs are reply_requested and reported separately).
  void run_one_sweep() {
    multicasts.clear();
    broadcasts.clear();
    sim.run_until(sim.now() + group_maintenance::kHelloInterval + msec(1));
  }

  /// All (destination, entry-group) pairs of non-probe scoped HELLOs.
  [[nodiscard]] std::set<std::pair<std::uint32_t, std::uint32_t>>
  scoped_reach() const {
    std::set<std::pair<std::uint32_t, std::uint32_t>> reach;
    for (const auto& [dsts, msg] : multicasts) {
      const auto* hello = std::get_if<proto::hello_msg>(&msg);
      if (hello == nullptr || hello->reply_requested) continue;
      for (const node_id dst : dsts) {
        for (const auto& entry : hello->entries) {
          reach.emplace(dst.value(), entry.group.value());
        }
      }
    }
    return reach;
  }

  [[nodiscard]] std::set<std::uint32_t> probe_destinations() const {
    std::set<std::uint32_t> probes;
    for (const auto& [dsts, msg] : multicasts) {
      const auto* hello = std::get_if<proto::hello_msg>(&msg);
      if (hello == nullptr || !hello->reply_requested) continue;
      for (const node_id dst : dsts) probes.insert(dst.value());
    }
    return probes;
  }
};

TEST(RosterScope, JoinAnnouncesClusterWideButSolicitsBoundedSnapshots) {
  // The join announcement is the discovery bootstrap: it must still go
  // through the cluster-wide broadcast hook. But it must NOT solicit a
  // snapshot from every roster node (O(n) ACKs of O(n) entries per join,
  // paid again on every promotion re-join): the solicitation is a bounded
  // multicast instead.
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  ASSERT_EQ(f.broadcasts.size(), 1u);
  const auto* announce = std::get_if<proto::hello_msg>(&f.broadcasts.back());
  ASSERT_NE(announce, nullptr);
  EXPECT_FALSE(announce->reply_requested);

  ASSERT_EQ(f.multicasts.size(), 1u);
  const auto& [dsts, msg] = f.multicasts.back();
  const auto* ask = std::get_if<proto::hello_msg>(&msg);
  ASSERT_NE(ask, nullptr);
  EXPECT_TRUE(ask->reply_requested);
  EXPECT_LE(dsts.size(), group_maintenance::kSnapshotFanout);
  EXPECT_FALSE(dsts.empty());
  for (const node_id d : dsts) EXPECT_NE(d, n0);  // never self

  // A later join prefers peers we already track over roster rotation.
  f.add_member(g1, n2, process_id{2}, true);
  f.multicasts.clear();
  f.gm.local_join(g2, process_id{100}, true);
  ASSERT_FALSE(f.multicasts.empty());
  const auto& warm = f.multicasts.back().first;
  EXPECT_TRUE(std::find(warm.begin(), warm.end(), n2) != warm.end());
}

TEST(RosterScope, CandidateSweepReachesExactlyUnionOfSharedGroupRosters) {
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.local_join(g2, process_id{100}, true);
  f.add_member(g1, n1, process_id{1}, true);
  f.add_member(g1, n2, process_id{2}, true);
  f.add_member(g2, n2, process_id{102}, true);
  f.add_member(g2, n3, process_id{103}, true);

  f.run_one_sweep();

  // A candidate's entry reaches every node of that group's roster — no
  // more, no less: g1 -> {n1, n2}, g2 -> {n2, n3}.
  const auto reach = f.scoped_reach();
  const std::set<std::pair<std::uint32_t, std::uint32_t>> expected = {
      {1, 1}, {2, 1}, {2, 2}, {3, 2}};
  EXPECT_EQ(reach, expected);

  // And the overall destination set is exactly the union of the rosters.
  std::set<std::uint32_t> dsts;
  for (const auto& [dst, group] : reach) dsts.insert(dst);
  EXPECT_EQ(dsts, (std::set<std::uint32_t>{1, 2, 3}));
}

TEST(RosterScope, ListenerEntriesReachOnlyCandidateHosts) {
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, /*candidate=*/false);
  f.add_member(g1, n1, process_id{1}, /*candidate=*/true);
  f.add_member(g1, n2, process_id{2}, /*candidate=*/false);
  f.add_member(g1, n3, process_id{3}, /*candidate=*/true);

  f.run_one_sweep();

  // A listener only refreshes its entry where it matters: at the nodes
  // hosting the group's candidates (they keep us in their tables and send
  // us the leader's ALIVEs). The fellow listener on n2 gets nothing.
  const auto reach = f.scoped_reach();
  const std::set<std::pair<std::uint32_t, std::uint32_t>> expected = {
      {1, 1}, {3, 1}};
  EXPECT_EQ(reach, expected);
}

TEST(RosterScope, ProbesRotateThroughUncoveredRosterNodes) {
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.add_member(g1, n1, process_id{1}, true);

  // Sweep 1 covers n1; exactly one probe to an uncovered roster node with a
  // reply-requested full HELLO (it solicits the peer's snapshot back).
  f.run_one_sweep();
  auto probes = f.probe_destinations();
  ASSERT_EQ(probes.size(), 1u);
  std::set<std::uint32_t> seen = probes;
  EXPECT_EQ(probes.count(0), 0u);  // never self
  EXPECT_EQ(probes.count(1), 0u);  // never an already-covered node

  // Subsequent sweeps keep rotating: within a few rounds every uncovered
  // roster node {n2..n5} has been probed at least once.
  for (int i = 0; i < 3; ++i) {
    f.run_one_sweep();
    for (const auto p : f.probe_destinations()) seen.insert(p);
  }
  EXPECT_EQ(seen, (std::set<std::uint32_t>{2, 3, 4, 5}));
}

TEST(RosterScope, ScopedLeaveReachesOnlyTheGroupRoster) {
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.local_join(g2, process_id{100}, true);
  f.add_member(g1, n1, process_id{1}, true);
  f.add_member(g1, n2, process_id{2}, false);
  f.add_member(g2, n3, process_id{103}, true);

  f.multicasts.clear();
  f.broadcasts.clear();
  f.gm.local_leave(g1, process_id{0});

  // The LEAVE rides the scoped path: g1's roster {n1, n2} hears it, the
  // disjoint-group peer n3 does not, and nothing goes cluster-wide.
  EXPECT_TRUE(f.broadcasts.empty());
  ASSERT_EQ(f.multicasts.size(), 1u);
  const auto& [dsts, msg] = f.multicasts.front();
  ASSERT_NE(std::get_if<proto::leave_msg>(&msg), nullptr);
  std::set<std::uint32_t> dst_set;
  for (const node_id d : dsts) dst_set.insert(d.value());
  EXPECT_EQ(dst_set, (std::set<std::uint32_t>{1, 2}));
}

TEST(RosterScope, AllFanoutIsByteIdenticalToSeedBehaviour) {
  // Regression guard for flat deployments: with `hello_fanout::all`, a
  // module wired with the full scoped tooling (multicast hook, cluster
  // roster) must emit exactly the same byte stream through exactly the
  // same hooks as the seed configuration.
  sim::simulator sim_seed;
  std::vector<std::vector<std::byte>> seed_bytes;
  group_maintenance seed_gm(sim_seed, sim_seed, n0, 1, {});
  seed_gm.set_broadcast([&](const proto::wire_message& m) {
    seed_bytes.push_back(proto::encode(m));
  });
  seed_gm.start();

  sim::simulator sim_new;
  std::vector<std::vector<std::byte>> new_bytes;
  bool multicast_used = false;
  group_maintenance new_gm(sim_new, sim_new, n0, 1, {});  // fanout defaults to all
  new_gm.set_broadcast([&](const proto::wire_message& m) {
    new_bytes.push_back(proto::encode(m));
  });
  new_gm.set_multicast([&](const std::vector<node_id>&,
                           const proto::wire_message&) { multicast_used = true; });
  new_gm.set_cluster_roster({n0, n1, n2, n3});

  const auto drive = [](group_maintenance& gm, sim::simulator& sim) {
    gm.local_join(g1, process_id{0}, true);
    proto::hello_msg remote;
    remote.from = n1;
    remote.inc = 1;
    remote.entries.push_back({g1, process_id{1}, true});
    gm.on_hello(remote, sim.now());
    sim.run_until(sim.now() + sec(10));
    gm.local_leave(g1, process_id{0});
  };
  new_gm.start();
  drive(seed_gm, sim_seed);
  drive(new_gm, sim_new);

  EXPECT_FALSE(multicast_used);
  EXPECT_EQ(seed_bytes, new_bytes);
}

TEST(RosterScope, AllFanoutSnapshotStaysUnscoped) {
  // Under `all` fanout the HELLO_ACK must stay the seed's full known
  // world, even when the requester announced only a subset of our groups
  // (roster mode intersects; flat deployments must not).
  sim::simulator sim;
  std::vector<std::pair<node_id, proto::wire_message>> unicasts;
  group_maintenance gm(sim, sim, n0, 1, {});  // fanout::all
  gm.set_unicast([&](node_id dst, const proto::wire_message& m) {
    unicasts.emplace_back(dst, m);
  });
  gm.local_join(g1, process_id{0}, true);
  gm.local_join(g2, process_id{100}, true);

  proto::hello_msg ask;
  ask.from = n1;
  ask.inc = 1;
  ask.reply_requested = true;
  ask.entries.push_back({g1, process_id{1}, true});  // announces g1 only
  gm.on_hello(ask, sim.now());

  ASSERT_EQ(unicasts.size(), 1u);
  const auto* ack = std::get_if<proto::hello_ack_msg>(&unicasts.back().second);
  ASSERT_NE(ack, nullptr);
  bool has_g2 = false;
  for (const auto& e : ack->entries) has_g2 |= e.group == g2;
  EXPECT_TRUE(has_g2) << "all-mode snapshot was scoped to the request";
}

TEST(RosterScope, ScopedSnapshotIntersectsWithTheRequest) {
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.local_join(g2, process_id{100}, true);

  proto::hello_msg ask;
  ask.from = n1;
  ask.inc = 1;
  ask.reply_requested = true;
  ask.entries.push_back({g1, process_id{1}, true});
  f.gm.on_hello(ask, f.sim.now());

  ASSERT_EQ(f.unicasts.size(), 1u);
  const auto* ack = std::get_if<proto::hello_ack_msg>(&f.unicasts.back().second);
  ASSERT_NE(ack, nullptr);
  for (const auto& e : ack->entries) {
    EXPECT_EQ(e.group, g1) << "scoped snapshot leaked a non-requested group";
  }
}

TEST(RosterScope, FallsBackToBroadcastWithoutMulticastHook) {
  // `roster` mode without a multicast hook (old-style wiring) must degrade
  // to the safe cluster-wide behaviour, not go silent.
  sim::simulator sim;
  std::vector<proto::wire_message> broadcasts;
  group_maintenance::options opts;
  opts.fanout = hello_fanout::roster;
  group_maintenance gm(sim, sim, n0, 1, opts);
  gm.set_broadcast([&](const proto::wire_message& m) { broadcasts.push_back(m); });
  gm.start();
  gm.local_join(g1, process_id{0}, true);
  const auto before = broadcasts.size();
  sim.run_until(sim.now() + sec(5));
  EXPECT_GT(broadcasts.size(), before);
}

}  // namespace
}  // namespace omega::membership
