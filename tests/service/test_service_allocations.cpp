// Heap allocations on the service's heartbeat path. A tick gives each
// destination the payloads of the groups whose tables hold it, encoded once
// per payload set, all from scratch reused across ticks: once warm, a tick
// allocates nothing, neither per destination nor per group.
//
// Replaces global operator new/delete, as tests/runtime/
// test_loop_allocations.cpp does, which is why it lives in a binary of its
// own. Only the simulator's events that sent an ALIVE are counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "proto/wire.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace omega::service {
namespace {

/// Drops every datagram it is asked to send; the test hands the service
/// its inbound datagrams directly.
class null_transport final : public net::transport {
 public:
  void send(node_id, std::span<const std::byte>) override {}
  void send(node_id, net::shared_payload) override {}
  void multicast(std::span<const node_id>, net::shared_payload) override {}
  net::payload_pool& pool() override { return pool_; }
  [[nodiscard]] node_id local_node() const override { return node_id{0}; }
  void set_receive_handler(net::receive_handler handler) override {
    handler_ = std::move(handler);
  }

  void deliver(node_id from, const proto::wire_message& msg) {
    const std::vector<std::byte> bytes = proto::encode(msg);
    handler_(net::datagram{from, bytes});
  }

 private:
  net::payload_pool pool_;
  net::receive_handler handler_;
};

TEST(ServiceAllocations, WarmTicksOfAThreeGroupNodeAllocateNothing) {
  sim::simulator sim;
  null_transport wire;
  service_config cfg;
  cfg.self = node_id{0};
  for (std::uint32_t i = 0; i < 9; ++i) cfg.roster.push_back(node_id{i});
  leader_election_service svc(sim, sim, wire, cfg);
  ASSERT_TRUE(svc.register_process(process_id{0}));

  // Overlapping tables, so a tick sends several payload sets: {g1},
  // {g1, g2}, {g2}, {g2, g3} and {g3}.
  const std::vector<std::vector<std::uint32_t>> tables = {
      {1, 2, 3, 4}, {3, 4, 5, 6}, {6, 7, 8}};
  for (std::uint32_t t = 0; t < tables.size(); ++t) {
    const group_id g{t + 1};
    ASSERT_TRUE(svc.join_group(process_id{0}, g, {}));
    for (const std::uint32_t node : tables[t]) {
      wire.deliver(node_id{node},
                   proto::hello_msg{node_id{node}, 1, false,
                                    {{g, process_id{100 * (t + 1) + node}, true}}});
    }
  }
  sim.run_until(sim.now() + sec(5));  // warm-up: the scratch reaches its size

  std::uint64_t ticks = 0;
  std::uint64_t allocs = 0;
  const time_point end = sim.now() + sec(10);
  while (sim.now() < end) {
    const std::uint64_t sent = svc.stats().alive_sent;
    const std::uint64_t before = g_allocs.load();
    ASSERT_TRUE(sim.step());
    const std::uint64_t during = g_allocs.load() - before;
    if (svc.stats().alive_sent != sent) {
      ++ticks;
      allocs += during;
    }
  }
  EXPECT_GE(ticks, 20u) << "the node barely heartbeated";
  EXPECT_EQ(allocs, 0u) << allocs << " allocations over " << ticks << " ticks";
  for (std::uint32_t t = 0; t < tables.size(); ++t) {
    EXPECT_EQ(svc.members(group_id{t + 1}).size(), tables[t].size() + 1);
  }
}

}  // namespace
}  // namespace omega::service
