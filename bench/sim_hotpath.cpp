// Simulator hot-path microbench (not a paper figure).
//
// Strips the protocol away and drives the datagram path directly: every
// node periodically encodes one ALIVE-shaped message into the network's
// payload pool and multicasts it to the full roster, so the measured loop
// is exactly (timer fire -> encode -> admit x N -> delivery x N) — the
// inner loop of every figure bench. Two numbers matter:
//
//   events/s            raw simulator throughput (wall clock, not virtual);
//   allocs/datagram     heap allocations per *delivered* datagram in steady
//                       state, counted by a global operator new hook. The
//                       zero-copy design (DESIGN.md §9) makes this 0.000:
//                       payload buffers recycle through the pool, timer
//                       callbacks live in the slab, the heap vector and the
//                       per-node scratch all reach a fixed point during
//                       warm-up. scripts/ci.sh gates on it staying 0.
//
// Machine readable: BENCH_sim_hotpath.json (override: OMEGA_BENCH_JSON).
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "net/sim_network.hpp"
#include "proto/wire.hpp"
#include "sim/simulator.hpp"

// ---- counting allocator hook ------------------------------------------------
// Replaces global operator new/delete for this binary only. The counter is
// read before/after the measured window; everything the hot path allocates
// lands here, including allocations from inlined std:: machinery.

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

// -----------------------------------------------------------------------------

using namespace omega;

namespace {

/// One sending node: a fixed pre-built message multicast to the full
/// roster every `interval`. The message object and destination list are
/// built once; the tick only mutates scalar fields.
struct driver {
  sim::simulator* sim = nullptr;
  net::transport* ep = nullptr;
  proto::wire_message msg;
  std::vector<node_id> dsts;
  duration interval{};
  std::uint64_t seq = 0;

  void tick() {
    auto& alive = std::get<proto::alive_msg>(msg);
    ++seq;
    for (auto& payload : alive.groups) payload.seq = seq;
    alive.send_time = sim->now();
    ep->multicast(dsts, proto::encode_shared(msg, ep->pool()));
    sim->schedule_after(interval, [this] { tick(); });
  }
};

}  // namespace

int main() {
  const std::size_t nodes = static_cast<std::size_t>(
      bench::env_double("OMEGA_BENCH_HOTPATH_NODES", 200.0));
  const double measure_s = bench::env_double("OMEGA_BENCH_HOTPATH_SECONDS", 20.0);

  sim::simulator sim;
  rng seed(bench::bench_seed() * 1000003u + 7777u);
  net::sim_network net(sim, nodes, net::link_profile::lan(), seed.split());

  // Sink every delivery into a byte counter, so receive work is counted but
  // trivial (the protocol layer is out of scope here by design).
  std::uint64_t rx_bytes = 0;
  std::vector<driver> drivers(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const node_id self{static_cast<std::uint32_t>(i)};
    auto& d = drivers[i];
    d.sim = &sim;
    d.ep = &net.endpoint(self);
    d.ep->set_receive_handler(
        [&rx_bytes](const net::datagram& dg) { rx_bytes += dg.payload.size(); });
    proto::alive_msg alive;
    alive.from = self;
    alive.inc = 1;
    alive.eta = msec(100);
    alive.groups.resize(2);  // typical shared-FD piggyback load
    alive.groups[0].group = group_id{0};
    alive.groups[0].pid = process_id{static_cast<std::uint32_t>(i)};
    alive.groups[1].group = group_id{1};
    alive.groups[1].pid = process_id{static_cast<std::uint32_t>(i)};
    d.msg = proto::wire_message{std::move(alive)};
    d.dsts.reserve(nodes - 1);
    for (std::size_t j = 0; j < nodes; ++j) {
      if (j != i) d.dsts.push_back(node_id{static_cast<std::uint32_t>(j)});
    }
    d.interval = msec(100);
    // Stagger starts so deliveries interleave instead of bursting.
    sim.schedule_at(time_origin + usec(500 * i), [&d] { d.tick(); });
  }

  // Warm-up: let the payload pool, the event heap, the callback slab and
  // every vector reach steady-state capacity.
  sim.run_until(time_origin + sec(5));

  std::uint64_t delivered_before = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    delivered_before +=
        net.traffic(node_id{static_cast<std::uint32_t>(i)}).datagrams_received;
  }
  const std::uint64_t events_before = sim.events_executed();
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);

  bench::wall_timer timer;
  sim.run_until(time_origin + sec(5) + from_seconds(measure_s));
  const double wall_s = timer.seconds();

  const std::uint64_t allocs_after = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t events_after = sim.events_executed();
  std::uint64_t delivered_after = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    delivered_after +=
        net.traffic(node_id{static_cast<std::uint32_t>(i)}).datagrams_received;
  }

  const std::uint64_t events = events_after - events_before;
  const std::uint64_t delivered = delivered_after - delivered_before;
  const std::uint64_t allocs = allocs_after - allocs_before;
  const double events_per_s =
      wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  const double allocs_per_datagram =
      delivered > 0 ? static_cast<double>(allocs) / static_cast<double>(delivered)
                    : -1.0;

  harness::table t("Simulator hot path: slab timers + pooled zero-copy payloads");
  t.headers({"nodes", "events", "delivered", "wall (s)", "events/s",
             "allocs", "allocs/datagram"});
  t.row({std::to_string(nodes), std::to_string(events), std::to_string(delivered),
         harness::fmt_double(wall_s, 3), harness::fmt_double(events_per_s, 0),
         std::to_string(allocs), harness::fmt_double(allocs_per_datagram, 6)});
  t.print(std::cout);
  std::cout << "zero_alloc_steady_state=" << (allocs == 0 ? "yes" : "no")
            << " (rx_bytes=" << rx_bytes << ")\n";

  const char* out_path = std::getenv("OMEGA_BENCH_JSON");
  std::ofstream out(out_path && *out_path ? out_path : "BENCH_sim_hotpath.json");
  out << "{\n  \"figure\": \"sim_hotpath\",\n  \"nodes\": " << nodes
      << ",\n  \"measure_virtual_s\": " << harness::fmt_double(measure_s, 1)
      << ",\n  \"events_executed\": " << events
      << ",\n  \"datagrams_delivered\": " << delivered
      << ",\n  \"wall_clock_s\": " << harness::fmt_double(wall_s, 3)
      << ",\n  \"events_per_s\": " << harness::fmt_double(events_per_s, 0)
      << ",\n  \"allocations\": " << allocs
      << ",\n  \"allocs_per_datagram\": "
      << harness::fmt_double(allocs_per_datagram, 6)
      << ",\n  \"zero_alloc_steady_state\": "
      << (allocs == 0 ? "true" : "false") << "\n}\n";
  return 0;
}
