// Version-2 (causally stamped) wire envelope: round-trip of the cause id,
// byte-identity of unstamped encodes, and two-way compatibility between
// stamped and unstamped stacks (DESIGN.md §7).
#include <gtest/gtest.h>

#include "proto/wire.hpp"

namespace omega::proto {
namespace {

accuse_msg sample_accuse() {
  accuse_msg m;
  m.from = node_id{4};
  m.from_inc = 2;
  m.group = group_id{1};
  m.target = process_id{7};
  m.target_inc = 1;
  m.phase = 3;
  m.when = time_origin + msec(1234);
  return m;
}

cause_id sample_cause() {
  cause_id c;
  c.origin = node_id{9};
  c.inc = 5;
  c.seq = 0xdeadbeef12345678ull;
  return c;
}

TEST(WireCausal, StampedRoundTripCarriesCause) {
  const accuse_msg original = sample_accuse();
  const auto bytes = encode(wire_message{original}, sample_cause());
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[0]), protocol_version_stamped);

  cause_id got;
  const auto decoded = decode(bytes, &got);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<accuse_msg>(*decoded), original);
  EXPECT_EQ(got, sample_cause());
}

TEST(WireCausal, InvalidCauseEmitsVersion1Bytes) {
  // Stamping disabled (or a spontaneous periodic send) must be
  // byte-identical to the pre-causal encoder: the golden-trace guard and
  // the wire fingerprints of deployed unstamped nodes both depend on it.
  const wire_message msg{sample_accuse()};
  const auto plain = encode(msg);
  const auto defaulted = encode(msg, cause_id{});
  EXPECT_EQ(plain, defaulted);
  EXPECT_EQ(static_cast<std::uint8_t>(plain[0]), protocol_version);
}

TEST(WireCausal, StampAdds16Bytes) {
  const wire_message msg{sample_accuse()};
  EXPECT_EQ(encode(msg, sample_cause()).size(), encode(msg).size() + 16u);
}

TEST(WireCausal, UnstampedParserStillAcceptsStampedDatagram) {
  // An unstamped receiver (no `cause` out-param) must interoperate with a
  // stamped sender: the stamp is skipped, the body decodes unchanged.
  const accuse_msg original = sample_accuse();
  const auto bytes = encode(wire_message{original}, sample_cause());
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<accuse_msg>(*decoded), original);
}

TEST(WireCausal, StampedParserReportsInvalidCauseForVersion1) {
  cause_id got = sample_cause();  // pre-poisoned: decode must reset it
  const auto bytes = encode(wire_message{sample_accuse()});
  const auto decoded = decode(bytes, &got);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(got.valid());
}

TEST(WireCausal, PeekKindReadsBothVersions) {
  const wire_message msg{sample_accuse()};
  EXPECT_EQ(peek_kind(encode(msg)), msg_kind::accuse);
  EXPECT_EQ(peek_kind(encode(msg, sample_cause())), msg_kind::accuse);
}

TEST(WireCausal, TruncatedStampRejected) {
  auto bytes = encode(wire_message{sample_accuse()}, sample_cause());
  // Cut inside the 16-byte stamp (2-byte envelope + partial cause id).
  bytes.resize(10);
  EXPECT_FALSE(decode(bytes).has_value());
  wire_message scratch{sample_accuse()};
  EXPECT_FALSE(decode_into(scratch, bytes));
}

TEST(WireCausal, DecodeIntoRoundTripsStampedAlive) {
  alive_msg m;
  m.from = node_id{1};
  m.inc = 3;
  m.send_time = time_origin + sec(2);
  m.eta = msec(100);
  group_payload g;
  g.group = group_id{1};
  g.seq = 42;
  g.pid = process_id{1};
  g.candidate = true;
  m.groups.push_back(g);

  const auto bytes = encode(wire_message{m}, sample_cause());
  wire_message scratch{alive_msg{}};
  cause_id got;
  ASSERT_TRUE(decode_into(scratch, bytes, &got));
  EXPECT_EQ(std::get<alive_msg>(scratch), m);
  EXPECT_EQ(got, sample_cause());
}

TEST(WireCausal, KindLabelsCoverAllTypes) {
  EXPECT_EQ(to_string(msg_kind::alive), "alive");
  EXPECT_EQ(to_string(msg_kind::accuse), "accuse");
  EXPECT_EQ(to_string(msg_kind::hello), "hello");
  EXPECT_EQ(to_string(msg_kind::hello_ack), "hello_ack");
  EXPECT_EQ(to_string(msg_kind::leave), "leave");
  EXPECT_EQ(to_string(msg_kind::rate_request), "rate_request");
}

}  // namespace
}  // namespace omega::proto
