// Outage attribution rules on hand-built traces without cause stamps:
// every event is a root of its causal graph, so the engagement boundary is
// the earliest engagement in the window.
#include "obs/forensics.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "obs/causal_graph.hpp"

namespace omega::obs {
namespace {

constexpr node_id kVictimNode{2};
constexpr process_id kVictimPid{2};
constexpr node_id kSurvivor{5};
constexpr process_id kSurvivorPid{5};

trace_event make(event_kind kind, duration at_offset, node_id node) {
  trace_event ev;
  ev.kind = kind;
  ev.at = time_origin + at_offset;
  ev.node = node;
  ev.group = group_id{1};
  return ev;
}

outage_budget attribute(const std::vector<trace_event>& events,
                        time_point start, time_point end,
                        std::optional<process_id> resolved = std::nullopt) {
  return causal_graph::build(events).attribute_outage(kVictimNode, kVictimPid,
                                                      start, end, resolved);
}

TEST(Forensics, FullyEvidencedOutageTilesTheWindow) {
  std::vector<trace_event> events;
  // Victim crashes at t=10s; first suspicion at 12s; survivor enters the
  // competition at 13.5s; converged leader_change at 15s.
  auto suspicion = make(event_kind::suspicion_raised, sec(12), kSurvivor);
  suspicion.peer = kVictimNode;
  events.push_back(suspicion);

  auto engage = make(event_kind::competition_enter, msec(13500), kSurvivor);
  engage.subject = kSurvivorPid;
  events.push_back(engage);

  auto lead = make(event_kind::leader_change, sec(15), kSurvivor);
  lead.subject = kSurvivorPid;
  events.push_back(lead);

  auto b = attribute(events, time_origin + sec(10), time_origin + sec(15));
  EXPECT_TRUE(b.saw_detection);
  EXPECT_TRUE(b.saw_engagement);
  EXPECT_NEAR(b.detection_s, 2.0, 1e-9);
  EXPECT_NEAR(b.dissemination_s, 1.5, 1e-9);
  EXPECT_NEAR(b.election_s, 1.5, 1e-9);
  EXPECT_NEAR(b.attributed_s(), b.window_s(), 1e-9);
  EXPECT_NEAR(b.attributed_fraction(), 1.0, 1e-9);
}

TEST(Forensics, EarliestSuspicionAcrossNodesWins) {
  std::vector<trace_event> events;
  for (int node = 3; node <= 6; ++node) {
    auto s = make(event_kind::suspicion_raised, sec(11) + msec(100 * node),
                  node_id{static_cast<std::uint32_t>(node)});
    s.peer = kVictimNode;
    events.push_back(s);
  }
  auto b = attribute(events, time_origin + sec(10), time_origin + sec(20));
  EXPECT_TRUE(b.saw_detection);
  EXPECT_NEAR(b.detection_s, 1.3, 1e-9);  // node 3's suspicion at 11.3s
}

TEST(Forensics, IgnoresSuspicionsOfOtherNodes) {
  std::vector<trace_event> events;
  auto s = make(event_kind::suspicion_raised, sec(12), kSurvivor);
  s.peer = node_id{9};  // somebody else entirely
  events.push_back(s);
  auto b = attribute(events, time_origin + sec(10), time_origin + sec(20));
  EXPECT_FALSE(b.saw_detection);
  EXPECT_DOUBLE_EQ(b.attributed_s(), 0.0);
}

TEST(Forensics, VictimOwnEventsAreNotEngagement) {
  std::vector<trace_event> events;
  auto s = make(event_kind::suspicion_raised, sec(12), kSurvivor);
  s.peer = kVictimNode;
  events.push_back(s);
  // The victim's stale recorder claims it re-entered the race — must not
  // count as a survivor engaging.
  auto stale = make(event_kind::competition_enter, sec(13), kVictimNode);
  stale.subject = kVictimPid;
  events.push_back(stale);
  auto b = attribute(events, time_origin + sec(10), time_origin + sec(20));
  EXPECT_TRUE(b.saw_detection);
  EXPECT_FALSE(b.saw_engagement);
  // Only the detection phase is evidenced.
  EXPECT_NEAR(b.attributed_s(), 2.0, 1e-9);
}

TEST(Forensics, ResolvedLeaderRestrictsLeaderChangeEvidence) {
  std::vector<trace_event> events;
  auto s = make(event_kind::suspicion_raised, sec(11), kSurvivor);
  s.peer = kVictimNode;
  events.push_back(s);
  // A transient wrong pick at 12s, then the agreed leader at 14s.
  auto wrong = make(event_kind::leader_change, sec(12), node_id{7});
  wrong.subject = process_id{7};
  events.push_back(wrong);
  auto right = make(event_kind::leader_change, sec(14), kSurvivor);
  right.subject = kSurvivorPid;
  events.push_back(right);

  auto unrestricted =
      attribute(events, time_origin + sec(10), time_origin + sec(15));
  EXPECT_NEAR(unrestricted.dissemination_s, 1.0, 1e-9);  // engaged at 12s

  auto restricted = attribute(events, time_origin + sec(10),
                              time_origin + sec(15), kSurvivorPid);
  EXPECT_NEAR(restricted.dissemination_s, 3.0, 1e-9);  // engaged at 14s
}

TEST(Forensics, EventsOutsideWindowAreIgnored) {
  std::vector<trace_event> events;
  auto before = make(event_kind::suspicion_raised, sec(9), kSurvivor);
  before.peer = kVictimNode;
  events.push_back(before);
  auto after = make(event_kind::suspicion_raised, sec(21), kSurvivor);
  after.peer = kVictimNode;
  events.push_back(after);
  auto b = attribute(events, time_origin + sec(10), time_origin + sec(20));
  EXPECT_FALSE(b.saw_detection);
}

TEST(Forensics, EvictionCountsAsDetection) {
  std::vector<trace_event> events;
  auto evict = make(event_kind::member_evicted, sec(13), kSurvivor);
  evict.subject = kVictimPid;
  events.push_back(evict);
  auto b = attribute(events, time_origin + sec(10), time_origin + sec(20));
  EXPECT_TRUE(b.saw_detection);
  EXPECT_NEAR(b.detection_s, 3.0, 1e-9);
}

TEST(Forensics, SummaryAggregates) {
  forensics_summary sum;
  outage_budget b;
  b.start = time_origin;
  b.end = time_origin + sec(4);
  b.detection_s = 2.0;
  b.dissemination_s = 1.0;
  b.election_s = 1.0;
  sum.add(b);
  b.detection_s = 4.0;
  b.dissemination_s = 0.0;
  b.election_s = 0.0;
  sum.add(b);
  EXPECT_EQ(sum.detection.count(), 2u);
  EXPECT_NEAR(sum.detection.mean(), 3.0, 1e-9);
  EXPECT_NEAR(sum.fraction.mean(), 1.0, 1e-9);
}

}  // namespace
}  // namespace omega::obs
