// Roster-scoped dissemination unit tests: scoped HELLO destination sets
// (union of shared-group rosters for candidates, live-claim candidate
// hosts for listeners), candidates-only snapshots and tables for
// listeners, cluster-wide join bootstrap, discovery probes, scoped LEAVE,
// sweeps that leave out what the ALIVEs since the previous sweep carried,
// and the `hello_fanout::all` regression guard (a node that heartbeats
// nothing sends the seed's bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "membership/group_maintenance.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
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

TEST(RosterScope, ListenerHellosOnlyCandidatesWithALiveOwnClaim) {
  // A candidate flag can be stale: a demotion reaches only the candidates'
  // hosts, and snapshots copy whatever flag the responder holds. Only the
  // member's own HELLO or ALIVE claims candidacy, and candidates re-claim
  // every sweep, so a listener refreshes its entry only where a claim is
  // younger than kClaimLifetime.
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, /*candidate=*/false);
  f.add_member(g1, n1, process_id{1}, /*candidate=*/true);
  f.add_member(g1, n2, process_id{2}, /*candidate=*/true);
  proto::hello_ack_msg ack;  // n1 reports n3 a candidate; n3 never says so
  ack.from = n1;
  ack.inc = 1;
  ack.entries.push_back({g1, process_id{3}, n3, 1, true});
  f.gm.on_hello_ack(ack, f.sim.now());
  ASSERT_NE(f.gm.table(g1).find(process_id{3}), nullptr);

  f.run_one_sweep();
  const std::set<std::pair<std::uint32_t, std::uint32_t>> both = {{1, 1}, {2, 1}};
  EXPECT_EQ(f.scoped_reach(), both);

  // n1 keeps claiming through its ALIVEs; n2 falls silent.
  proto::alive_msg alive;
  alive.from = n1;
  alive.inc = 1;
  alive.groups.push_back({.group = g1, .pid = process_id{1}, .candidate = true});
  for (int sweep = 0; sweep < 2; ++sweep) {
    f.gm.on_alive(alive, f.sim.now());
    f.run_one_sweep();
  }
  ASSERT_GE(f.sim.now() - time_origin, group_maintenance::kClaimLifetime);
  const std::set<std::pair<std::uint32_t, std::uint32_t>> only_n1 = {{1, 1}};
  EXPECT_EQ(f.scoped_reach(), only_n1);

  // A fresh claim brings n2 back.
  f.add_member(g1, n2, process_id{2}, /*candidate=*/true);
  f.gm.on_alive(alive, f.sim.now());
  f.run_one_sweep();
  EXPECT_EQ(f.scoped_reach(), both);
}

TEST(RosterScope, SnapshotToAListenerCarriesOnlyLiveCandidates) {
  // A listener uses a group's candidates only (it HELLOs them and elects
  // among them), so its snapshot holds the live-claim candidates and the
  // responder if it is one. A candidate requester must know the whole
  // roster to lead it, so it still gets every entry.
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, /*candidate=*/true);
  f.add_member(g1, n4, process_id{4}, /*candidate=*/true);  // will lapse
  f.sim.run_until(f.sim.now() + group_maintenance::kClaimLifetime + sec(1));
  f.add_member(g1, n1, process_id{1}, /*candidate=*/true);
  f.add_member(g1, n2, process_id{2}, /*candidate=*/false);
  proto::hello_ack_msg hearsay;
  hearsay.from = n1;
  hearsay.inc = 1;
  hearsay.entries.push_back({g1, process_id{3}, n3, 1, true});
  f.gm.on_hello_ack(hearsay, f.sim.now());

  const auto snapshot_for = [&](bool requester_candidate) {
    proto::hello_msg ask;
    ask.from = n5;
    ask.inc = 1;
    ask.reply_requested = true;
    ask.entries.push_back({g1, process_id{5}, requester_candidate});
    f.unicasts.clear();
    f.gm.on_hello(ask, f.sim.now());
    std::set<std::uint32_t> pids;
    EXPECT_EQ(f.unicasts.size(), 1u);
    if (f.unicasts.empty()) return pids;
    EXPECT_EQ(f.unicasts.back().first, n5);
    const auto* ack = std::get_if<proto::hello_ack_msg>(&f.unicasts.back().second);
    EXPECT_NE(ack, nullptr);
    if (ack == nullptr) return pids;
    for (const auto& e : ack->entries) pids.insert(e.pid.value());
    return pids;
  };
  EXPECT_EQ(snapshot_for(/*requester_candidate=*/false),
            (std::set<std::uint32_t>{0, 1}));
  EXPECT_EQ(snapshot_for(/*requester_candidate=*/true),
            (std::set<std::uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(RosterScope, PromotionSolicitsSnapshotsFromLiveCandidatesFirst) {
  // Only a group's candidates announce to its whole roster, so they are
  // the peers sure to hold all of it: a promoted listener asks them first.
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, /*candidate=*/false);
  f.add_member(g1, n1, process_id{1}, /*candidate=*/false);
  f.add_member(g1, n2, process_id{2}, /*candidate=*/false);
  f.add_member(g1, n3, process_id{3}, /*candidate=*/false);
  f.add_member(g1, n4, process_id{4}, /*candidate=*/true);
  f.multicasts.clear();
  f.gm.update_local_candidacy(g1, true);
  ASSERT_EQ(f.multicasts.size(), 1u);
  const auto& [dsts, msg] = f.multicasts.front();
  const auto* ask = std::get_if<proto::hello_msg>(&msg);
  ASSERT_NE(ask, nullptr);
  EXPECT_TRUE(ask->reply_requested);
  ASSERT_EQ(dsts.size(), group_maintenance::kSnapshotFanout);
  EXPECT_EQ(dsts.front(), n4);
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

TEST(RosterScope, HeartbeatedGroupAddsNoSweepEntryWhileAListenerGroupDoes) {
  // An ALIVE carrying this node's g1 payload went to g1's whole table since
  // the previous sweep: it is the same first-hand evidence as the HELLO
  // entry, so the sweep leaves g1 out. The listener group g2 sent no
  // payload, so its entry still goes to its live candidate's host.
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, /*candidate=*/true);
  f.gm.local_join(g2, process_id{100}, /*candidate=*/false);
  f.add_member(g1, n1, process_id{1}, true);
  f.add_member(g1, n2, process_id{2}, false);
  f.add_member(g2, n3, process_id{103}, true);
  f.add_member(g2, n4, process_id{104}, false);

  f.gm.note_heartbeat(g1);
  f.run_one_sweep();

  const std::set<std::pair<std::uint32_t, std::uint32_t>> expected = {{3, 2}};
  EXPECT_EQ(f.scoped_reach(), expected);
  // The probes still skip the heartbeated group's peers.
  const auto probes = f.probe_destinations();
  EXPECT_EQ(probes.count(1), 0u);
  EXPECT_EQ(probes.count(2), 0u);
}

TEST(RosterScope, AllFanoutStillSendsTheEntryOutsideTheHeartbeatedTable) {
  // `all` fanout: g1's ALIVEs reached n1 and n2, so they get no periodic
  // g1 entry; the roster nodes outside g1's table still do, so discovery
  // stays what the cluster-wide broadcast gives.
  scoped_fixture f(group_maintenance::options{});
  f.gm.local_join(g1, process_id{0}, true);
  f.add_member(g1, n1, process_id{1}, true);
  f.add_member(g1, n2, process_id{2}, true);

  f.gm.note_heartbeat(g1);
  f.run_one_sweep();

  EXPECT_TRUE(f.broadcasts.empty());
  const std::set<std::pair<std::uint32_t, std::uint32_t>> expected = {
      {3, 1}, {4, 1}, {5, 1}};
  EXPECT_EQ(f.scoped_reach(), expected);
}

TEST(RosterScope, AllFanoutLeavesOutOnlyTheHeartbeatedGroupsEntryPerNode) {
  // `all` fanout, a node in g1 and g2: g1's ALIVEs reached n1, so n1 gets
  // only g2's entry, while n2 and n3 get both. Each destination's entry set
  // is what counts, not the order of the calls that carry it.
  scoped_fixture f(group_maintenance::options{});
  f.gm.set_cluster_roster({n0, n1, n2, n3});
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.local_join(g2, process_id{100}, true);
  f.add_member(g1, n1, process_id{1}, true);

  f.gm.note_heartbeat(g1);
  f.run_one_sweep();

  EXPECT_TRUE(f.broadcasts.empty());
  const std::set<std::pair<std::uint32_t, std::uint32_t>> expected = {
      {1, 2}, {2, 1}, {2, 2}, {3, 1}, {3, 2}};
  EXPECT_EQ(f.scoped_reach(), expected);
}

TEST(RosterScope, AHeartbeatOlderThanTheLastSweepSuppressesNothing) {
  for (const hello_fanout fanout : {hello_fanout::roster, hello_fanout::all}) {
    scoped_fixture f(group_maintenance::options{fanout});
    f.gm.local_join(g1, process_id{0}, true);
    f.add_member(g1, n1, process_id{1}, true);
    f.gm.note_heartbeat(g1);
    f.run_one_sweep();  // covered by the heartbeat
    f.run_one_sweep();  // no heartbeat since the previous sweep

    bool entry_to_n1 = f.scoped_reach().count({1, 1}) > 0;
    for (const auto& msg : f.broadcasts) {
      const auto* hello = std::get_if<proto::hello_msg>(&msg);
      entry_to_n1 |= hello != nullptr && !hello->entries.empty();
    }
    EXPECT_TRUE(entry_to_n1) << "fanout " << static_cast<int>(fanout);
  }
}

TEST(RosterScope, SilentMemberStillGetsTheEntryOfAHeartbeatedGroup) {
  // An ALIVE reaches only a node whose link works. A member silent for
  // kSilentAfter may be cut off; the sweep's HELLO is what lets it find
  // this node again when the link heals, before either evicts the other.
  for (const hello_fanout fanout : {hello_fanout::roster, hello_fanout::all}) {
    scoped_fixture f(group_maintenance::options{fanout});
    f.gm.local_join(g1, process_id{0}, true);
    f.add_member(g1, n1, process_id{1}, true);
    f.add_member(g1, n2, process_id{2}, true);
    f.sim.run_until(f.sim.now() + group_maintenance::kSilentAfter);
    f.add_member(g1, n2, process_id{2}, true);  // n2 speaks, n1 stays silent
    f.gm.note_heartbeat(g1);
    f.run_one_sweep();

    const auto reach = f.scoped_reach();
    EXPECT_EQ(reach.count({1, 1}), 1u) << "fanout " << static_cast<int>(fanout);
    EXPECT_EQ(reach.count({2, 1}), 0u) << "fanout " << static_cast<int>(fanout);
  }
}

TEST(RosterScope, CandidacyFlipIsAnnouncedAtOnceDespiteAHeartbeat) {
  // Only the sweep leaves heartbeated groups out: a demotion's announce
  // carries the new flag right away, in both fanouts.
  for (const hello_fanout fanout : {hello_fanout::roster, hello_fanout::all}) {
    scoped_fixture f(group_maintenance::options{fanout});
    f.gm.local_join(g1, process_id{0}, true);
    f.add_member(g1, n1, process_id{1}, true);
    f.gm.note_heartbeat(g1);
    f.multicasts.clear();
    f.broadcasts.clear();

    f.gm.update_local_candidacy(g1, false);

    std::vector<const proto::hello_msg*> hellos;
    for (const auto& [dsts, msg] : f.multicasts) {
      const auto* hello = std::get_if<proto::hello_msg>(&msg);
      if (hello == nullptr || hello->reply_requested) continue;  // a probe
      hellos.push_back(hello);
      EXPECT_NE(std::find(dsts.begin(), dsts.end(), n1), dsts.end());
    }
    for (const auto& msg : f.broadcasts) {
      if (const auto* hello = std::get_if<proto::hello_msg>(&msg)) hellos.push_back(hello);
    }
    ASSERT_FALSE(hellos.empty()) << "fanout " << static_cast<int>(fanout);
    for (const auto* hello : hellos) {
      ASSERT_EQ(hello->entries.size(), 1u);
      EXPECT_EQ(hello->entries.front().group, g1);
      EXPECT_FALSE(hello->entries.front().candidate);
    }
  }
}

TEST(RosterScope, ProbeFromAListenerLeavesAListenerTargetUnchanged) {
  // A listener keeps candidates and itself: another listener's entry from a
  // discovery probe would never be refreshed and would only be evicted
  // kEvictionAfter later. The probe is still answered.
  scoped_fixture f;
  obs::ring_recorder ring{64};
  obs::sink sink{nullptr, &ring, n0};
  f.gm.set_sink(&sink);
  f.gm.local_join(g1, process_id{0}, /*candidate=*/false);
  f.add_member(g1, n1, process_id{1}, /*candidate=*/true);
  const std::vector<member_info> before = f.gm.table(g1).members();
  const std::uint64_t version = f.gm.table(g1).version();
  const std::uint64_t events = ring.recorded();

  proto::hello_msg probe;
  probe.from = n2;
  probe.inc = 1;
  probe.reply_requested = true;
  probe.entries.push_back({g1, process_id{2}, /*candidate=*/false});
  f.unicasts.clear();
  f.gm.on_hello(probe, f.sim.now());

  EXPECT_EQ(f.gm.table(g1).members(), before);
  EXPECT_EQ(f.gm.table(g1).version(), version);
  EXPECT_EQ(ring.recorded(), events);
  ASSERT_EQ(f.unicasts.size(), 1u);
  EXPECT_EQ(f.unicasts.front().first, n2);

  // A candidate's entry still lands.
  f.add_member(g1, n3, process_id{3}, /*candidate=*/true);
  EXPECT_NE(f.gm.table(g1).find(process_id{3}), nullptr);
}

TEST(RosterScope, SnapshotNeverRewritesTheLocalMember) {
  // A responder's copy of this node's member can carry the flag from before
  // a demotion. Applied, it would make this node's own snapshots report
  // itself a candidate, and every listener probing it would keep a copy
  // that nobody refreshes until it is evicted.
  scoped_fixture f;
  f.gm.local_join(g1, process_id{0}, /*candidate=*/false);
  f.add_member(g1, n1, process_id{1}, /*candidate=*/true);
  proto::hello_ack_msg stale;
  stale.from = n1;
  stale.inc = 1;
  stale.entries.push_back({g1, process_id{0}, n0, 1, /*candidate=*/true});
  f.gm.on_hello_ack(stale, f.sim.now());

  const member_info* self = f.gm.table(g1).find(process_id{0});
  ASSERT_NE(self, nullptr);
  EXPECT_FALSE(self->candidate);

  proto::hello_msg probe;
  probe.from = n2;
  probe.inc = 1;
  probe.reply_requested = true;
  probe.entries.push_back({g1, process_id{2}, /*candidate=*/false});
  f.unicasts.clear();
  f.gm.on_hello(probe, f.sim.now());
  ASSERT_EQ(f.unicasts.size(), 1u);
  const auto* ack = std::get_if<proto::hello_ack_msg>(&f.unicasts.front().second);
  ASSERT_NE(ack, nullptr);
  for (const auto& e : ack->entries) EXPECT_NE(e.node, n0) << "reported itself";
}

TEST(RosterScope, AllFanoutIsByteIdenticalToSeedBehaviour) {
  // Regression guard for flat deployments: with `hello_fanout::all`, a node
  // that heartbeats nothing sends every roster node the seed's byte stream
  // (the join HELLO, one full HELLO per sweep, the LEAVE), whichever hook
  // carries each datagram.
  sim::simulator sim;
  const std::vector<node_id> roster = {n0, n1, n2, n3};
  std::map<std::uint32_t, std::vector<std::vector<std::byte>>> received;
  group_maintenance gm(sim, sim, n0, 1, {});  // fanout defaults to all
  gm.set_broadcast([&](const proto::wire_message& m) {
    for (const node_id dst : roster) {
      if (dst != n0) received[dst.value()].push_back(proto::encode(m));
    }
  });
  gm.set_multicast([&](const std::vector<node_id>& dsts, const proto::wire_message& m) {
    for (const node_id dst : dsts) received[dst.value()].push_back(proto::encode(m));
  });
  gm.set_cluster_roster(roster);
  gm.start();

  gm.local_join(g1, process_id{0}, true);
  proto::hello_msg remote;
  remote.from = n1;
  remote.inc = 1;
  remote.entries.push_back({g1, process_id{1}, true});
  gm.on_hello(remote, sim.now());
  sim.run_until(sim.now() + sec(9));  // sweeps at 2, 4, 6 and 8 s
  gm.local_leave(g1, process_id{0});

  proto::hello_msg hello{n0, 1, /*reply_requested=*/true, {{g1, process_id{0}, true}}};
  std::vector<std::vector<std::byte>> seed = {proto::encode(hello)};
  hello.reply_requested = false;
  for (int sweep = 0; sweep < 4; ++sweep) seed.push_back(proto::encode(hello));
  seed.push_back(proto::encode(proto::leave_msg{n0, 1, g1, process_id{0}}));

  EXPECT_EQ(received.size(), 3u);
  for (const node_id dst : {n1, n2, n3}) {
    EXPECT_EQ(received[dst.value()], seed) << "node " << dst.value();
  }
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

}  // namespace
}  // namespace omega::membership
