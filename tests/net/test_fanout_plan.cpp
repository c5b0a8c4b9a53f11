// The fan-out planner shared by the heartbeat tick and the HELLO sweep:
// destinations given the same items share one callback, items come
// ascending and destinations in node order, and sets come in the order
// they were first named.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "net/fanout_plan.hpp"

namespace omega::net {
namespace {

constexpr node_id n1{1};
constexpr node_id n2{2};
constexpr node_id n3{3};
constexpr node_id n4{4};

constexpr std::uint32_t a = 0;
constexpr std::uint32_t b = 1;
constexpr std::uint32_t c = 2;

using set_call = std::pair<std::vector<std::uint32_t>, std::vector<node_id>>;

std::vector<set_call> calls_of(fanout_plan& plan) {
  std::vector<set_call> calls;
  plan.for_each_set([&](std::span<const std::uint32_t> items,
                        std::span<const node_id> dsts) {
    calls.emplace_back(std::vector<std::uint32_t>(items.begin(), items.end()),
                       std::vector<node_id>(dsts.begin(), dsts.end()));
  });
  return calls;
}

TEST(FanoutPlan, DestinationsGivenTheSameItemsShareOneCallback) {
  fanout_plan plan;
  for (const node_id dst : {n1, n2, n3}) {
    plan.give(dst, a);
    plan.give(dst, b);
  }
  const std::vector<set_call> expected = {{{a, b}, {n1, n2, n3}}};
  EXPECT_EQ(calls_of(plan), expected);
}

TEST(FanoutPlan, ARepeatedGiftCountsOnce) {
  // A node hosting two members of one group is given its item twice.
  fanout_plan plan;
  plan.give(n1, a);
  plan.give(n1, a);
  plan.give(n1, b);
  plan.give(n2, a);
  plan.give(n2, b);
  plan.give(n2, b);
  const std::vector<set_call> expected = {{{a, b}, {n1, n2}}};
  EXPECT_EQ(calls_of(plan), expected);
}

TEST(FanoutPlan, ItemsAscendAndDestinationsComeInNodeOrder) {
  fanout_plan plan;
  for (const node_id dst : {n4, n2, n3, n1}) {
    plan.give(dst, c);
    plan.give(dst, a);
  }
  const std::vector<set_call> expected = {{{a, c}, {n1, n2, n3, n4}}};
  EXPECT_EQ(calls_of(plan), expected);
}

TEST(FanoutPlan, SetsComeInTheOrderTheyWereFirstNamed) {
  // Naming n1's {a, b} names {a} on the way, so {a} comes first even
  // though n2, its one destination, comes after n1.
  fanout_plan plan;
  plan.give(n1, b);
  plan.give(n1, a);
  plan.give(n2, a);
  plan.give(n3, c);
  const std::vector<set_call> expected = {
      {{a}, {n2}}, {{a, b}, {n1}}, {{c}, {n3}}};
  EXPECT_EQ(calls_of(plan), expected);
}

TEST(FanoutPlan, AnEmptyPlanCallsNothing) {
  fanout_plan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(calls_of(plan).empty());

  // A cleared plan is empty again and forgets its gifts.
  plan.give(n1, a);
  EXPECT_FALSE(plan.empty());
  plan.clear();
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(calls_of(plan).empty());
}

TEST(FanoutPlan, AReusedPlanNamesItsSetsAfresh) {
  fanout_plan plan;
  plan.give(n1, a);
  plan.give(n2, b);
  calls_of(plan);
  plan.clear();
  plan.give(n2, b);
  plan.give(n3, b);
  const std::vector<set_call> expected = {{{b}, {n2, n3}}};
  EXPECT_EQ(calls_of(plan), expected);
}

}  // namespace
}  // namespace omega::net
