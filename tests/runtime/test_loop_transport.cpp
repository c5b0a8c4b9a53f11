// Batched loop transport tests: the encode-once refcount contract (one
// pooled buffer crosses the whole multicast fan-out and exactly one
// sendmmsg), the per-errno send accounting, truncated receives in both
// modes, bind conflicts, unknown-peer drops (counted and traced), the
// per-datagram baseline mode, and the obs export bridge.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/runtime_export.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/loop_transport.hpp"

namespace omega::runtime {
namespace {

using namespace std::chrono_literals;

template <typename Cond>
bool wait_until(Cond cond, std::chrono::milliseconds deadline) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return cond();
}

/// n transports on `loop`, all port-0 bound with the real roster
/// distributed afterwards.
std::vector<std::unique_ptr<loop_udp_transport>> make_cluster(
    event_loop& loop, std::size_t n) {
  udp_roster bind_roster;
  const auto nid = [](std::size_t i) {
    return node_id{static_cast<std::uint32_t>(i)};
  };
  for (std::size_t i = 0; i < n; ++i) {
    bind_roster[nid(i)] = udp_endpoint{"127.0.0.1", 0};
  }
  std::vector<std::unique_ptr<loop_udp_transport>> out;
  udp_roster real_roster;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(
        std::make_unique<loop_udp_transport>(loop, nid(i), bind_roster));
    real_roster[nid(i)] =
        udp_endpoint{"127.0.0.1", out.back()->bound_port()};
  }
  loop.sync([&] {
    for (auto& t : out) t->set_roster(real_roster);
  });
  return out;
}

TEST(LoopTransport, EncodeOnceMulticastSharesOneBuffer) {
  // The tentpole contract: a multicast to g-1 destinations is ONE encode,
  // one pooled buffer referenced from every ring entry, and one
  // sendmmsg(2) — never a per-destination copy or syscall.
  event_loop loop;
  auto cluster = make_cluster(loop, 5);
  std::atomic<int> received{0};
  loop.sync([&] {
    for (std::size_t i = 1; i < cluster.size(); ++i) {
      cluster[i]->set_receive_handler(
          [&](const net::datagram&) { received.fetch_add(1); });
    }
  });

  const std::vector<node_id> dsts = {node_id{1}, node_id{2}, node_id{3},
                                     node_id{4}};
  const std::vector<std::byte> raw(100, std::byte{0x5A});
  std::uint64_t sendmmsg_before = 0;
  std::uint32_t refs_while_queued = 0;
  std::size_t queued = 0;
  loop.sync([&] {
    sendmmsg_before = loop.stats_snapshot().sendmmsg_calls;
    net::shared_payload payload = cluster[0]->pool().copy(raw);
    EXPECT_EQ(payload.use_count(), 1u);
    cluster[0]->multicast(dsts, payload);
    // Our handle + one reference per ring entry — and no byte copies: the
    // ring holds the same block.
    refs_while_queued = payload.use_count();
    queued = cluster[0]->queue_depth();
  });
  EXPECT_EQ(refs_while_queued, 5u) << "fan-out must share one buffer";
  EXPECT_EQ(queued, 4u);

  ASSERT_TRUE(wait_until([&] { return received.load() == 4; }, 5000ms));
  std::uint64_t sendmmsg_after = 0;
  std::uint64_t sendto_after = 0;
  loop.sync([&] {
    const auto s = loop.stats_snapshot();
    sendmmsg_after = s.sendmmsg_calls;
    sendto_after = s.sendto_calls;
    EXPECT_EQ(cluster[0]->queue_depth(), 0u);
    EXPECT_EQ(cluster[0]->stats().datagrams_sent, 4u);
  });
  EXPECT_EQ(sendmmsg_after - sendmmsg_before, 1u)
      << "4-way fan-out must cost exactly one sendmmsg";
  EXPECT_EQ(sendto_after, 0u) << "batched mode must never fall back to sendto";
}

TEST(LoopTransport, OversizedSendCountedAsError) {
  // A >64KB datagram fails with EMSGSIZE; it must be counted (errno class
  // "other"), dropped, and must not wedge the ring for later datagrams.
  event_loop loop;
  auto cluster = make_cluster(loop, 2);
  std::atomic<int> received{0};
  loop.sync([&] {
    cluster[1]->set_receive_handler(
        [&](const net::datagram&) { received.fetch_add(1); });
  });
  const std::vector<std::byte> oversized(70 * 1024, std::byte{1});
  const std::vector<std::byte> small(16, std::byte{2});
  loop.sync([&] {
    cluster[0]->send(node_id{1}, oversized);
    cluster[0]->send(node_id{1}, small);
  });
  ASSERT_TRUE(wait_until([&] { return received.load() >= 1; }, 5000ms));
  loop.sync([&] {
    EXPECT_GE(cluster[0]->stats().send_err_other, 1u);
    EXPECT_EQ(cluster[0]->stats().send_err_eagain, 0u);
    EXPECT_EQ(cluster[0]->stats().datagrams_sent, 1u);
  });
}

/// Sends a datagram larger than the receive slot, then a small one, from
/// one roster peer to another: the oversized one must be counted as
/// truncated and dropped, never handed up as its prefix.
void expect_oversized_receive_dropped(bool batching) {
  event_loop::options opts;
  opts.batching = batching;
  event_loop loop(opts);
  auto cluster = make_cluster(loop, 2);
  std::atomic<int> received{0};
  std::atomic<std::size_t> last_size{0};
  loop.sync([&] {
    cluster[1]->set_receive_handler([&](const net::datagram& d) {
      last_size.store(d.payload.size());
      received.fetch_add(1);
    });
  });
  const std::vector<std::byte> oversized(20000, std::byte{7});
  const std::vector<std::byte> small(16, std::byte{8});
  loop.sync([&] { cluster[0]->send(node_id{1}, oversized); });
  ASSERT_TRUE(wait_until(
      [&] {
        std::uint64_t truncated = 0;
        loop.sync([&] { truncated = cluster[1]->stats().rx_truncated; });
        return truncated >= 1;
      },
      5000ms));
  loop.sync([&] { cluster[0]->send(node_id{1}, small); });
  ASSERT_TRUE(wait_until([&] { return received.load() >= 1; }, 5000ms));
  EXPECT_EQ(received.load(), 1) << "truncated datagram reached the handler";
  EXPECT_EQ(last_size.load(), small.size());
  loop.sync([&] {
    EXPECT_EQ(cluster[1]->stats().rx_truncated, 1u);
    EXPECT_EQ(cluster[1]->stats().datagrams_received, 2u);
  });
}

TEST(LoopTransport, OversizedReceiveDroppedWhenBatched) {
  expect_oversized_receive_dropped(true);
}

TEST(LoopTransport, OversizedReceiveDroppedPerDatagram) {
  expect_oversized_receive_dropped(false);
}

TEST(LoopTransport, BindConflictThrows) {
  event_loop loop;
  auto cluster = make_cluster(loop, 1);
  udp_roster taken;
  taken[node_id{0}] = udp_endpoint{"127.0.0.1", cluster[0]->bound_port()};
  EXPECT_THROW(loop_udp_transport(loop, node_id{0}, taken), std::system_error);
}

TEST(LoopTransport, UnknownPeerCountedAndTraced) {
  // Datagrams from an (addr, port) outside the roster must be dropped,
  // counted, and leave a trace event — not vanish.
  event_loop loop;
  auto cluster = make_cluster(loop, 2);

  // The impostor knows the victim's address but is not in its roster.
  udp_roster impostor_roster;
  impostor_roster[node_id{9}] = udp_endpoint{"127.0.0.1", 0};
  impostor_roster[node_id{0}] =
      udp_endpoint{"127.0.0.1", cluster[0]->bound_port()};
  loop_udp_transport impostor(loop, node_id{9}, impostor_roster);

  obs::ring_recorder ring(64);
  obs::sink sink(nullptr, &ring, node_id{0});
  std::atomic<int> handler_calls{0};
  loop.sync([&] {
    cluster[0]->set_sink(&sink);
    cluster[0]->set_receive_handler(
        [&](const net::datagram&) { handler_calls.fetch_add(1); });
  });
  const std::vector<std::byte> payload = {std::byte{0xEE}};
  loop.sync([&] { impostor.send(node_id{0}, payload); });

  ASSERT_TRUE(wait_until(
      [&] {
        std::uint64_t drops = 0;
        loop.sync([&] { drops = cluster[0]->stats().rx_unknown_peer; });
        return drops >= 1;
      },
      5000ms));
  EXPECT_EQ(handler_calls.load(), 0)
      << "unknown-peer datagram must not reach the service";
  bool traced = false;
  loop.sync([&] {
    for (const auto& ev : ring.events()) {
      if (ev.kind == obs::event_kind::unknown_peer_drop &&
          ev.node == node_id{0}) {
        traced = true;
      }
    }
  });
  EXPECT_TRUE(traced) << "drop must leave an unknown_peer_drop trace event";
}

TEST(LoopTransport, BaselineModeUsesPerDatagramSyscalls) {
  event_loop::options opts;
  opts.batching = false;
  event_loop loop(opts);
  auto cluster = make_cluster(loop, 3);
  std::atomic<int> received{0};
  loop.sync([&] {
    for (std::size_t i = 1; i < cluster.size(); ++i) {
      cluster[i]->set_receive_handler(
          [&](const net::datagram&) { received.fetch_add(1); });
    }
  });
  const std::vector<node_id> dsts = {node_id{1}, node_id{2}};
  const std::vector<std::byte> payload(64, std::byte{3});
  loop.sync([&] { cluster[0]->multicast(dsts, payload); });
  ASSERT_TRUE(wait_until([&] { return received.load() == 2; }, 5000ms));
  loop.sync([&] {
    const auto s = loop.stats_snapshot();
    EXPECT_EQ(s.sendmmsg_calls, 0u);
    EXPECT_EQ(s.recvmmsg_calls, 0u);
    EXPECT_EQ(s.sendto_calls, 2u) << "baseline: one sendto per destination";
    EXPECT_GE(s.recvfrom_calls, 2u);
    EXPECT_EQ(cluster[0]->queue_depth(), 0u) << "baseline never queues";
  });
}

TEST(LoopTransport, ExportPublishesRuntimeFamilies) {
  event_loop loop;
  auto cluster = make_cluster(loop, 2);
  std::atomic<int> received{0};
  loop.sync([&] {
    cluster[1]->set_receive_handler(
        [&](const net::datagram&) { received.fetch_add(1); });
  });
  const std::vector<std::byte> payload(32, std::byte{4});
  loop.sync([&] { cluster[0]->send(node_id{1}, payload); });
  ASSERT_TRUE(wait_until([&] { return received.load() == 1; }, 5000ms));

  obs::registry reg;
  loop.sync([&] {
    obs::export_transport_stats(reg, *cluster[0]);
    obs::export_transport_stats(reg, *cluster[1]);
    obs::export_loop_stats(reg, 0, loop.stats_snapshot());
  });
  EXPECT_EQ(reg.get_counter("runtime_transport_datagrams_total",
                            {{"node", "0"}, {"dir", "tx"}})
                .value(),
            1u);
  EXPECT_EQ(reg.get_counter("runtime_transport_datagrams_total",
                            {{"node", "1"}, {"dir", "rx"}})
                .value(),
            1u);
  EXPECT_EQ(reg.get_counter("runtime_send_errors_total",
                            {{"node", "0"}, {"reason", "eagain"}})
                .value(),
            0u);
  EXPECT_GE(reg.get_counter("runtime_syscalls_total",
                            {{"loop", "0"}, {"op", "sendmmsg"}})
                .value(),
            1u);
  EXPECT_GE(reg.get_counter("runtime_syscalls_total",
                            {{"loop", "0"}, {"op", "epoll_wait"}})
                .value(),
            1u);
}

TEST(LoopTransport, SendToUnknownNodeIsNoop) {
  event_loop loop;
  auto cluster = make_cluster(loop, 1);
  const std::vector<std::byte> payload = {std::byte{1}};
  loop.sync([&] {
    cluster[0]->send(node_id{42}, payload);
    EXPECT_EQ(cluster[0]->queue_depth(), 0u);
    EXPECT_EQ(cluster[0]->stats().datagrams_sent, 0u);
  });
}

}  // namespace
}  // namespace omega::runtime
