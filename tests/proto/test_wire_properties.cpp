// Property sweep: every wire message with randomized field values must
// survive encode -> decode exactly, across many seeds (parameterized).
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "proto/wire.hpp"

namespace omega::proto {
namespace {

class WireProperty : public ::testing::TestWithParam<std::uint64_t> {};

time_point random_time(rng& r) {
  return time_origin + usec(static_cast<std::int64_t>(r.uniform_below(1ull << 40)));
}

group_payload random_payload(rng& r) {
  group_payload p;
  p.group = group_id{static_cast<std::uint32_t>(r.uniform_below(1u << 16))};
  p.seq = r.uniform_below(1ull << 50);
  p.pid = process_id{static_cast<std::uint32_t>(r.uniform_below(1u << 16))};
  p.candidate = r.bernoulli(0.5);
  p.competing = r.bernoulli(0.5);
  p.accusation_time = random_time(r);
  p.phase = static_cast<std::uint32_t>(r.uniform_below(1u << 20));
  p.local_leader = r.bernoulli(0.3)
                       ? process_id::invalid()
                       : process_id{static_cast<std::uint32_t>(r.uniform_below(64))};
  p.local_leader_acc = random_time(r);
  return p;
}

TEST_P(WireProperty, AliveRoundTripsExactly) {
  rng r{GetParam()};
  alive_msg msg;
  msg.from = node_id{static_cast<std::uint32_t>(r.uniform_below(1u << 10))};
  msg.inc = static_cast<incarnation>(r.uniform_below(1u << 20));
  msg.send_time = random_time(r);
  msg.eta = usec(static_cast<std::int64_t>(r.uniform_below(10'000'000)));
  const std::size_t n_groups = r.uniform_below(5);
  for (std::size_t i = 0; i < n_groups; ++i) msg.groups.push_back(random_payload(r));

  const auto decoded = decode(encode(wire_message{msg}));
  ASSERT_TRUE(decoded.has_value());
  const auto* out = std::get_if<alive_msg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, msg);
}

TEST_P(WireProperty, AccuseRoundTripsExactly) {
  rng r{GetParam() ^ 0x1111};
  accuse_msg msg;
  msg.from = node_id{static_cast<std::uint32_t>(r.uniform_below(1u << 10))};
  msg.from_inc = static_cast<incarnation>(r.uniform_below(1u << 20));
  msg.group = group_id{static_cast<std::uint32_t>(r.uniform_below(1u << 16))};
  msg.target = process_id{static_cast<std::uint32_t>(r.uniform_below(1u << 16))};
  msg.target_inc = static_cast<incarnation>(r.uniform_below(1u << 20));
  msg.phase = static_cast<std::uint32_t>(r.uniform_below(1u << 20));
  msg.when = random_time(r);

  const auto decoded = decode(encode(wire_message{msg}));
  ASSERT_TRUE(decoded.has_value());
  const auto* out = std::get_if<accuse_msg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, msg);
}

TEST_P(WireProperty, HelloAndAckRoundTripExactly) {
  rng r{GetParam() ^ 0x2222};
  hello_msg hello;
  hello.from = node_id{static_cast<std::uint32_t>(r.uniform_below(1u << 10))};
  hello.inc = static_cast<incarnation>(r.uniform_below(1u << 20));
  hello.reply_requested = r.bernoulli(0.5);
  const std::size_t n = r.uniform_below(6);
  for (std::size_t i = 0; i < n; ++i) {
    hello.entries.push_back(
        {group_id{static_cast<std::uint32_t>(r.uniform_below(64))},
         process_id{static_cast<std::uint32_t>(r.uniform_below(64))},
         r.bernoulli(0.5)});
  }
  auto decoded = decode(encode(wire_message{hello}));
  ASSERT_TRUE(decoded.has_value());
  const auto* h = std::get_if<hello_msg>(&*decoded);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(*h, hello);

  hello_ack_msg ack;
  ack.from = hello.from;
  ack.inc = hello.inc;
  for (std::size_t i = 0; i < n; ++i) {
    ack.entries.push_back(
        {group_id{static_cast<std::uint32_t>(r.uniform_below(64))},
         process_id{static_cast<std::uint32_t>(r.uniform_below(64))},
         node_id{static_cast<std::uint32_t>(r.uniform_below(64))},
         static_cast<incarnation>(r.uniform_below(1u << 16)),
         r.bernoulli(0.5)});
  }
  decoded = decode(encode(wire_message{ack}));
  ASSERT_TRUE(decoded.has_value());
  const auto* a = std::get_if<hello_ack_msg>(&*decoded);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, ack);
}

TEST_P(WireProperty, TruncationAtEveryLengthRejectedOrValid) {
  // Chopping an encoded ALIVE at any byte boundary must either fail decode
  // cleanly or (never) produce a different message — it must never crash.
  rng r{GetParam() ^ 0x3333};
  alive_msg msg;
  msg.from = node_id{1};
  msg.inc = 2;
  msg.send_time = random_time(r);
  msg.eta = msec(250);
  msg.groups.push_back(random_payload(r));
  const auto bytes = encode(wire_message{msg});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto truncated =
        std::vector<std::byte>(bytes.begin(), bytes.begin() + len);
    const auto decoded = decode(truncated);
    EXPECT_FALSE(decoded.has_value()) << "truncated to " << len << " bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u));

}  // namespace
}  // namespace omega::proto
