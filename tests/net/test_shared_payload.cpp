// Lifetime and recycling tests for the zero-copy datagram path
// (net::shared_payload / net::payload_pool, DESIGN.md §9).
//
// The interesting hazards are all about references outliving their origin:
// a delivery event holding the buffer after the *sender* crashed, after the
// receiver was marked dead mid-flight, after the pool itself was destroyed,
// and hundreds of multicast destinations aliasing one immutable buffer.
// The ASan pass of scripts/ci.sh runs these against instrumented builds.
#include "net/shared_payload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/sim_network.hpp"
#include "proto/wire.hpp"
#include "sim/simulator.hpp"

namespace omega::net {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = std::byte(s[i]);
  return out;
}

std::string string_of(std::span<const std::byte> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// ---- pool mechanics ---------------------------------------------------------

TEST(PayloadPool, SealCopyAndRefcount) {
  payload_pool pool;
  shared_payload p = pool.copy(bytes_of("abc"));
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.use_count(), 1u);
  EXPECT_EQ(pool.live_payloads(), 1u);

  shared_payload q = p;  // alias
  EXPECT_EQ(p.use_count(), 2u);
  EXPECT_EQ(string_of(q.bytes()), "abc");

  p = shared_payload{};  // drop one reference
  EXPECT_EQ(q.use_count(), 1u);
  EXPECT_EQ(pool.live_payloads(), 1u);

  q = shared_payload{};  // last reference: storage returns to the free list
  EXPECT_EQ(pool.live_payloads(), 0u);
  EXPECT_EQ(pool.free_buffers(), 1u);
}

TEST(PayloadPool, CheckoutRecyclesCapacity) {
  payload_pool pool;
  { shared_payload p = pool.copy(std::vector<std::byte>(512)); }
  ASSERT_EQ(pool.free_buffers(), 1u);

  std::vector<std::byte> buf = pool.checkout();
  EXPECT_TRUE(buf.empty());
  EXPECT_GE(buf.capacity(), 512u);  // the recycled vector keeps its storage
  buf.push_back(std::byte{7});
  shared_payload p = pool.seal(std::move(buf));
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(pool.free_buffers(), 0u);  // the one block is live again
}

TEST(PayloadPool, FreeListIsBounded) {
  payload_pool pool(/*max_free=*/2);
  std::vector<shared_payload> live;
  for (int i = 0; i < 5; ++i) live.push_back(pool.copy(bytes_of("x")));
  live.clear();
  EXPECT_EQ(pool.free_buffers(), 2u);  // the other three were freed outright
}

TEST(PayloadPool, PayloadOutlivesPool) {
  shared_payload survivor;
  {
    payload_pool pool;
    survivor = pool.copy(bytes_of("still here"));
    // Pool dies first (the simulator can hold delivery events past the
    // network's teardown); the block must be orphaned, not dangled.
  }
  EXPECT_EQ(string_of(survivor.bytes()), "still here");
  survivor = shared_payload{};  // self-deletes; ASan would flag a bad free
}

// ---- in-flight lifetime through the simulated network -----------------------

class PayloadLifetimeTest : public ::testing::Test {
 protected:
  sim::simulator sim;
  sim_network net{sim, 4, link_profile{0.0, msec(5)}, rng(99)};
};

TEST_F(PayloadLifetimeTest, DeliveryAfterSenderCrashMidFlight) {
  std::vector<std::string> got;
  net.endpoint(node_id{1}).set_receive_handler(
      [&](const datagram& d) { got.push_back(string_of(d.payload)); });

  net.endpoint(node_id{0}).send(
      node_id{1}, net.buffer_pool().copy(bytes_of("from the grave")));
  // The sender dies while the datagram is on the wire; the delivery event
  // still owns a reference and must deliver intact bytes.
  net.set_node_alive(node_id{0}, false);
  sim.run_until(time_origin + sec(1));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "from the grave");
}

TEST_F(PayloadLifetimeTest, ReceiverDeadMidFlightDropsAndRecycles) {
  int received = 0;
  net.endpoint(node_id{1}).set_receive_handler(
      [&](const datagram&) { ++received; });
  net.endpoint(node_id{0}).send(node_id{1},
                                net.buffer_pool().copy(bytes_of("late")));
  net.set_node_alive(node_id{1}, false);  // dies after admit, before delivery
  sim.run_until(time_origin + sec(1));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.dropped_dead_node(), 1u);
  // The dropped delivery released the last reference: buffer recycled.
  EXPECT_EQ(net.buffer_pool().live_payloads(), 0u);
  EXPECT_GE(net.buffer_pool().free_buffers(), 1u);
}

TEST_F(PayloadLifetimeTest, MulticastAliasesOneBuffer) {
  // All three destinations must see identical bytes even though only one
  // buffer exists, and no receiver can perturb another (spans are const).
  std::vector<std::string> got;
  for (std::uint32_t n = 1; n < 4; ++n) {
    net.endpoint(node_id{n}).set_receive_handler(
        [&](const datagram& d) { got.push_back(string_of(d.payload)); });
  }
  shared_payload p = net.buffer_pool().copy(bytes_of("fanout"));
  const node_id dsts[] = {node_id{1}, node_id{2}, node_id{3}};
  net.endpoint(node_id{0}).multicast(dsts, p);
  // One buffer, one sender handle + three in-flight references.
  EXPECT_EQ(p.use_count(), 4u);
  EXPECT_EQ(net.buffer_pool().live_payloads(), 1u);
  sim.run_until(time_origin + sec(1));
  ASSERT_EQ(got.size(), 3u);
  for (const auto& s : got) EXPECT_EQ(s, "fanout");
  EXPECT_EQ(p.use_count(), 1u);  // only the local handle left
}

TEST_F(PayloadLifetimeTest, SteadyStateReusesFreeList) {
  net.endpoint(node_id{1}).set_receive_handler([](const datagram&) {});
  // Round 1 grows the pool to the working set...
  for (int i = 0; i < 10; ++i) {
    net.endpoint(node_id{0}).send(node_id{1},
                                  net.buffer_pool().copy(bytes_of("warm")));
  }
  sim.run_until(time_origin + sec(1));
  const std::size_t settled = net.buffer_pool().free_buffers();
  EXPECT_GE(settled, 1u);
  // ...round 2 cycles through it without growing it.
  for (int i = 0; i < 10; ++i) {
    net.endpoint(node_id{0}).send(node_id{1},
                                  net.buffer_pool().copy(bytes_of("reuse")));
  }
  sim.run_until(time_origin + sec(2));
  EXPECT_EQ(net.buffer_pool().free_buffers(), settled);
  EXPECT_EQ(net.buffer_pool().live_payloads(), 0u);
}

TEST(PayloadTeardown, InFlightPayloadSurvivesNetworkTeardown) {
  // The harness destroys members in reverse declaration order: the network
  // (and its pool) dies before the simulator, which still holds delivery
  // closures owning payload references. Those events never fire — but their
  // queued closures are destroyed with the simulator, and releasing the
  // last reference then must free the orphaned block directly instead of
  // chasing the dangling pool pointer (ASan guards the frees).
  sim::simulator sim;
  {
    sim_network net(sim, 2, link_profile{0.0, msec(5)}, rng(7));
    net.endpoint(node_id{1}).set_receive_handler([](const datagram&) {});
    net.endpoint(node_id{0}).send(node_id{1},
                                  net.buffer_pool().copy(bytes_of("orphan")));
    EXPECT_EQ(net.buffer_pool().live_payloads(), 1u);
  }
  // Simulator destroyed at scope exit with the in-flight event still queued.
}

// ---- encode_shared ----------------------------------------------------------

TEST(EncodeShared, MatchesPlainEncodeByteForByte) {
  proto::alive_msg m;
  m.from = node_id{3};
  m.inc = 2;
  m.eta = msec(100);
  m.groups.resize(1);
  m.groups[0].group = group_id{1};
  m.groups[0].seq = 41;
  m.groups[0].pid = process_id{3};
  const proto::wire_message wm{m};

  const std::vector<std::byte> plain = proto::encode(wm);
  payload_pool pool;
  const shared_payload shared = proto::encode_shared(wm, pool);
  ASSERT_EQ(shared.size(), plain.size());
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), shared.bytes().begin()));
}

}  // namespace
}  // namespace omega::net
