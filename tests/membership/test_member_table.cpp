#include "membership/member_table.hpp"

#include <gtest/gtest.h>

namespace omega::membership {
namespace {

TEST(MemberTable, JoinAndFind) {
  member_table t;
  EXPECT_EQ(t.upsert(process_id{1}, node_id{1}, 1, true, time_origin),
            upsert_result::joined);
  const member_info* m = t.find(process_id{1});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->node, node_id{1});
  EXPECT_TRUE(m->candidate);
  EXPECT_EQ(t.size(), 1u);
}

TEST(MemberTable, RefreshIsUnchanged) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin);
  EXPECT_EQ(t.upsert(process_id{1}, node_id{1}, 1, true, time_origin + sec(5)),
            upsert_result::unchanged);
  EXPECT_EQ(t.find(process_id{1})->last_refresh, time_origin + sec(5));
}

TEST(MemberTable, RefreshTimestampNeverRegresses) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin + sec(10));
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin + sec(5));
  EXPECT_EQ(t.find(process_id{1})->last_refresh, time_origin + sec(10));
}

TEST(MemberTable, ReincarnationReplaces) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin);
  EXPECT_EQ(t.upsert(process_id{1}, node_id{1}, 2, false, time_origin + sec(1)),
            upsert_result::reincarnated);
  EXPECT_EQ(t.find(process_id{1})->inc, 2u);
  EXPECT_FALSE(t.find(process_id{1})->candidate);
}

TEST(MemberTable, StaleIncarnationIgnored) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 5, true, time_origin);
  EXPECT_EQ(t.upsert(process_id{1}, node_id{1}, 3, false, time_origin + sec(1)),
            upsert_result::stale_ignored);
  EXPECT_TRUE(t.find(process_id{1})->candidate);
}

TEST(MemberTable, CandidateFlagChangeIsUpdated) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin);
  EXPECT_EQ(t.upsert(process_id{1}, node_id{1}, 1, false, time_origin),
            upsert_result::updated);
}

TEST(MemberTable, CandidacyClaimFollowsOnlyTheMembersOwnWord) {
  // A snapshot's candidate flag is hearsay: it sets the flag but never the
  // claim. The member's own candidate evidence stamps the claim, and its
  // own non-candidate evidence clears it; a snapshot leaves it alone.
  member_table t;
  const process_id p{1};
  t.upsert(p, node_id{1}, 1, true, time_origin, evidence::snapshot);
  EXPECT_TRUE(t.find(p)->candidate);
  EXPECT_EQ(t.find(p)->last_claim, time_point::min());
  t.upsert(p, node_id{1}, 1, true, time_origin + sec(1));
  EXPECT_EQ(t.find(p)->last_claim, time_origin + sec(1));
  t.upsert(p, node_id{1}, 1, true, time_origin + sec(2), evidence::snapshot);
  EXPECT_EQ(t.find(p)->last_claim, time_origin + sec(1));
  EXPECT_EQ(t.find(p)->last_refresh, time_origin + sec(2));
  t.upsert(p, node_id{1}, 1, false, time_origin + sec(3));
  EXPECT_EQ(t.find(p)->last_claim, time_point::min());
  t.upsert(p, node_id{1}, 2, true, time_origin + sec(4), evidence::snapshot);
  EXPECT_EQ(t.find(p)->inc, 2u);
  EXPECT_EQ(t.find(p)->last_claim, time_point::min());
  EXPECT_EQ(t.members_view().front(), *t.find(p));
}

TEST(MemberTable, RemoveRespectsIncarnation) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 5, true, time_origin);
  EXPECT_FALSE(t.remove(process_id{1}, 4).has_value());  // stale LEAVE
  EXPECT_EQ(t.size(), 1u);
  auto removed = t.remove(process_id{1}, 5);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->pid, process_id{1});
  EXPECT_TRUE(t.empty());
}

TEST(MemberTable, RemoveUnknownIsNoop) {
  member_table t;
  EXPECT_FALSE(t.remove(process_id{9}, 1).has_value());
}

TEST(MemberTable, EvictStaleHonoursVouching) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin);
  t.upsert(process_id{2}, node_id{2}, 1, true, time_origin);
  // Evict anything older than t=10s unless it is pid 2 (vouched).
  const auto evicted =
      t.evict_stale(time_origin + sec(10), [](const member_info& m) {
        return m.pid == process_id{2};
      });
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].pid, process_id{1});
  EXPECT_NE(t.find(process_id{2}), nullptr);
}

TEST(MemberTable, EvictKeepsFreshEntries) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin + sec(20));
  const auto evicted = t.evict_stale(time_origin + sec(10),
                                     [](const member_info&) { return false; });
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(t.size(), 1u);
}

TEST(MemberTable, MembersSortedByPid) {
  member_table t;
  t.upsert(process_id{3}, node_id{3}, 1, true, time_origin);
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin);
  t.upsert(process_id{2}, node_id{2}, 1, true, time_origin);
  const auto members = t.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].pid, process_id{1});
  EXPECT_EQ(members[1].pid, process_id{2});
  EXPECT_EQ(members[2].pid, process_id{3});
}

}  // namespace
}  // namespace omega::membership
