#include "proto/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hpp"

namespace omega::proto {
namespace {

alive_msg sample_alive() {
  alive_msg m;
  m.from = node_id{3};
  m.inc = 7;
  m.send_time = time_origin + msec(1500);
  m.eta = msec(250);
  group_payload g;
  g.group = group_id{1};
  g.seq = 123456789;
  g.pid = process_id{3};
  g.candidate = true;
  g.competing = true;
  g.accusation_time = time_origin + sec(42);
  g.phase = 9;
  g.local_leader = process_id{1};
  g.local_leader_acc = time_origin + sec(2);
  m.groups.push_back(g);
  return m;
}

TEST(Wire, AliveRoundTrip) {
  const alive_msg original = sample_alive();
  const auto bytes = encode(wire_message{original});
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<alive_msg>(*decoded));
  EXPECT_EQ(std::get<alive_msg>(*decoded), original);
}

TEST(Wire, AliveMultipleGroupsRoundTrip) {
  alive_msg m = sample_alive();
  group_payload g2 = m.groups[0];
  g2.group = group_id{2};
  g2.seq = 5;  // each payload numbers its own group's stream
  g2.competing = false;
  g2.local_leader = process_id::invalid();
  m.groups.push_back(g2);
  const auto decoded = decode(encode(wire_message{m}));
  ASSERT_TRUE(decoded.has_value());
  const auto& out = std::get<alive_msg>(*decoded);
  EXPECT_EQ(out, m);
  ASSERT_EQ(out.groups.size(), 2u);
  EXPECT_EQ(out.groups[0].seq, 123456789u);
  EXPECT_EQ(out.groups[1].seq, 5u);
}

TEST(Wire, AliveLengthKeepsOnePayloadAndAddsEightBytesPerExtraPayload) {
  // Before payloads carried their own counter, an ALIVE was a 70-byte
  // one-payload datagram plus 34 bytes per extra payload, with one 8-byte
  // node-level counter in the header. The counter moved into the payload:
  // a one-payload ALIVE (every single-group deployment) keeps its length,
  // and each extra payload costs exactly 8 more bytes than it used to.
  constexpr std::size_t one_payload = 70;
  constexpr std::size_t old_extra_payload = 34;
  alive_msg m = sample_alive();
  EXPECT_EQ(encode(wire_message{m}).size(), one_payload);
  for (std::size_t extra = 1; extra <= 3; ++extra) {
    group_payload g = m.groups[0];
    g.group = group_id{static_cast<std::uint32_t>(10 + extra)};
    m.groups.push_back(g);
    EXPECT_EQ(encode(wire_message{m}).size(),
              one_payload + extra * (old_extra_payload + 8));
  }
}

TEST(Wire, AliveEmptyGroupsRoundTrip) {
  alive_msg m = sample_alive();
  m.groups.clear();
  const auto decoded = decode(encode(wire_message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<alive_msg>(*decoded), m);
}

TEST(Wire, AccuseRoundTrip) {
  accuse_msg m;
  m.from = node_id{2};
  m.from_inc = 5;
  m.group = group_id{1};
  m.target = process_id{9};
  m.target_inc = 3;
  m.phase = 17;
  m.when = time_origin + sec(100);
  const auto decoded = decode(encode(wire_message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<accuse_msg>(*decoded), m);
}

TEST(Wire, HelloRoundTrip) {
  hello_msg m;
  m.from = node_id{1};
  m.inc = 2;
  m.reply_requested = true;
  m.entries.push_back({group_id{1}, process_id{1}, true});
  m.entries.push_back({group_id{7}, process_id{1}, false});
  const auto decoded = decode(encode(wire_message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<hello_msg>(*decoded), m);
}

TEST(Wire, HelloAckRoundTrip) {
  hello_ack_msg m;
  m.from = node_id{4};
  m.inc = 1;
  for (std::uint32_t i = 0; i < 12; ++i) {
    m.entries.push_back({group_id{1}, process_id{i}, node_id{i}, i + 1, i % 2 == 0});
  }
  const auto decoded = decode(encode(wire_message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<hello_ack_msg>(*decoded), m);
}

TEST(Wire, LeaveRoundTrip) {
  leave_msg m{node_id{5}, 9, group_id{2}, process_id{5}};
  const auto decoded = decode(encode(wire_message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<leave_msg>(*decoded), m);
}

TEST(Wire, RateRequestRoundTrip) {
  rate_request_msg m{node_id{6}, 2, msec(125)};
  const auto decoded = decode(encode(wire_message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<rate_request_msg>(*decoded), m);
}

TEST(Wire, SenderAndIncarnationAccessors) {
  EXPECT_EQ(sender_of(wire_message{sample_alive()}), node_id{3});
  EXPECT_EQ(incarnation_of(wire_message{sample_alive()}), 7u);
  accuse_msg a;
  a.from = node_id{8};
  a.from_inc = 12;
  EXPECT_EQ(sender_of(wire_message{a}), node_id{8});
  EXPECT_EQ(incarnation_of(wire_message{a}), 12u);
}

TEST(Wire, RejectsEmptyInput) { EXPECT_FALSE(decode({}).has_value()); }

TEST(Wire, RejectsWrongVersion) {
  auto bytes = encode(wire_message{sample_alive()});
  bytes[0] = std::byte{0x7F};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Wire, RejectsUnknownType) {
  auto bytes = encode(wire_message{sample_alive()});
  bytes[1] = std::byte{0x63};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Wire, RejectsTruncation) {
  const auto bytes = encode(wire_message{sample_alive()});
  for (std::size_t cut = 2; cut < bytes.size(); cut += 3) {
    EXPECT_FALSE(decode(std::span(bytes).first(cut)).has_value())
        << "truncation at " << cut << " should fail";
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  auto bytes = encode(wire_message{sample_alive()});
  bytes.push_back(std::byte{0});
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Wire, FuzzRandomBytesNeverCrash) {
  rng r(2024);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> junk(r.uniform_below(128));
    for (auto& b : junk) b = std::byte(r.uniform_below(256));
    (void)decode(junk);  // must not crash; result may be anything valid
  }
}

TEST(Wire, FuzzBitFlippedMessagesNeverCrash) {
  rng r(7);
  const auto base = encode(wire_message{sample_alive()});
  for (int round = 0; round < 2000; ++round) {
    auto bytes = base;
    const std::size_t flips = 1 + r.uniform_below(8);
    for (std::size_t i = 0; i < flips; ++i) {
      const std::size_t pos = r.uniform_below(bytes.size());
      bytes[pos] ^= std::byte(1u << r.uniform_below(8));
    }
    (void)decode(bytes);
  }
}

TEST(Wire, AliveMessageSizeIsCompact) {
  // The ALIVE with one group payload is the bandwidth unit of the service;
  // keep an eye on its wire size (paper's overhead figures depend on it).
  const auto bytes = encode(wire_message{sample_alive()});
  EXPECT_LT(bytes.size(), 128u);
  EXPECT_GT(bytes.size(), 32u);
}

}  // namespace
}  // namespace omega::proto
