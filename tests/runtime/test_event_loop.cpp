// Event-loop tests: timer/post/sync semantics (including the
// cross-thread eventfd wake), then the integration — many real services on
// ONE loop thread over real UDP sockets electing, losing and re-electing a
// leader, three services on three loops of a pool electing across threads,
// plus the teardown edge cases (transport destroyed mid-traffic, port-0
// rebind).
//
// Every wait is wall-clock bounded: a hang fails the test instead of the
// suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "election/elector.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/loop_transport.hpp"
#include "service/service.hpp"

namespace omega::runtime {
namespace {

using namespace std::chrono_literals;

/// Spin-waits (wall clock) until `cond` holds or `deadline` elapses.
template <typename Cond>
bool wait_until(Cond cond, std::chrono::milliseconds deadline) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return cond();
}

node_id nid(std::size_t i) { return node_id{static_cast<std::uint32_t>(i)}; }
process_id pid(std::size_t i) {
  return process_id{static_cast<std::uint32_t>(i)};
}

udp_roster make_roster(std::uint16_t base, std::size_t n) {
  udp_roster roster;
  for (std::size_t i = 0; i < n; ++i) {
    roster[nid(i)] =
        udp_endpoint{"127.0.0.1", static_cast<std::uint16_t>(base + i)};
  }
  return roster;
}

TEST(EventLoop, TimersFireInOrder) {
  event_loop loop;
  std::vector<int> order;
  std::atomic<int> fired{0};
  loop.sync([&] {
    loop.schedule_after(msec(30), [&] {
      order.push_back(2);
      fired.fetch_add(1);
    });
    loop.schedule_after(msec(5), [&] {
      order.push_back(1);
      fired.fetch_add(1);
    });
  });
  ASSERT_TRUE(wait_until([&] { return fired.load() == 2; }, 2000ms));
  loop.sync([&] {
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
  });
}

TEST(EventLoop, CancelPreventsFiring) {
  event_loop loop;
  std::atomic<bool> cancelled_ran{false};
  std::atomic<bool> kept_ran{false};
  loop.sync([&] {
    const timer_id id =
        loop.schedule_after(msec(20), [&] { cancelled_ran.store(true); });
    loop.schedule_after(msec(25), [&] { kept_ran.store(true); });
    loop.cancel(id);
  });
  ASSERT_TRUE(wait_until([&] { return kept_ran.load(); }, 2000ms));
  EXPECT_FALSE(cancelled_ran.load());
}

TEST(EventLoop, CancelUnknownOrFiredIdIsNoop) {
  event_loop loop;
  std::atomic<bool> fired{false};
  timer_id fired_id{};
  loop.sync([&] {
    fired_id = loop.schedule_after(msec(5), [&] { fired.store(true); });
  });
  ASSERT_TRUE(wait_until([&] { return fired.load(); }, 2000ms));
  std::atomic<bool> kept_ran{false};
  loop.sync([&] {
    loop.cancel(timer_id{123456});  // never issued
    loop.cancel(fired_id);          // already fired
    loop.schedule_after(msec(5), [&] { kept_ran.store(true); });
  });
  EXPECT_TRUE(wait_until([&] { return kept_ran.load(); }, 2000ms))
      << "a no-op cancel must not disturb later timers";
}

TEST(EventLoop, PostFromManyThreadsRunsEveryTask) {
  event_loop loop;
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) loop.post([&] { count.fetch_add(1); });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(wait_until([&] { return count.load() == 200; }, 2000ms))
      << count.load() << " of 200 posted tasks ran";
}

TEST(EventLoop, TimerRearmsItselfFromItsCallback) {
  event_loop loop;
  std::atomic<int> fires{0};
  std::function<void()> tick = [&] {
    if (fires.fetch_add(1) < 4) loop.schedule_after(msec(5), tick);
  };
  loop.sync([&] { loop.schedule_after(msec(5), tick); });
  EXPECT_TRUE(wait_until([&] { return fires.load() >= 5; }, 2000ms))
      << "self-re-arming timer stopped after " << fires.load() << " fires";
}

TEST(EventLoop, CrossThreadTimerWakesIdleLoop) {
  // With no timers and no sockets the loop blocks in epoll_wait with no
  // timeout; a timer armed from another thread must kick it through the
  // eventfd, or it would never fire.
  event_loop loop;
  std::this_thread::sleep_for(20ms);  // let the loop settle into its wait
  std::atomic<bool> fired{false};
  loop.schedule_after(msec(5), [&] { fired.store(true); });
  EXPECT_TRUE(wait_until([&] { return fired.load(); }, 2000ms));
}

TEST(EventLoop, TimerSlackClustersDueTimers) {
  // Two timers within the slack window (500us) of each other run on the
  // same wakeup — the alignment that keeps co-scheduled heartbeats batched.
  event_loop loop;
  std::atomic<int> fired{0};
  std::uint64_t iter_first = 0;
  std::uint64_t iter_second = 0;
  loop.sync([&] {
    const time_point first = loop.now() + msec(20);
    loop.schedule_at(first, [&] {
      iter_first = loop.stats_snapshot().iterations;
      fired.fetch_add(1);
    });
    loop.schedule_at(first + usec(200), [&] {
      iter_second = loop.stats_snapshot().iterations;
      fired.fetch_add(1);
    });
  });
  ASSERT_TRUE(wait_until([&] { return fired.load() == 2; }, 2000ms));
  EXPECT_EQ(iter_first, iter_second)
      << "timers 200us apart (slack 500us) should fire on one loop iteration";
}

TEST(EventLoop, EqualDeadlinesFireInScheduleOrder) {
  event_loop loop;
  std::vector<int> order;
  std::atomic<int> fired{0};
  loop.sync([&] {
    const time_point when = loop.now() + msec(10);
    for (int i = 0; i < 10; ++i) {
      loop.schedule_at(when, [&order, &fired, i] {
        order.push_back(i);
        fired.fetch_add(1);
      });
    }
  });
  ASSERT_TRUE(wait_until([&] { return fired.load() == 10; }, 2000ms));
  loop.sync([&] {
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  });
}

TEST(EventLoop, FiredIdNeverCancelsItsSlotsNextTimer) {
  // Timer ids name a recycled slot plus its generation: once A fired, B may
  // take A's slot, and a late cancel of A's id (a scoped_timer re-arming
  // after its timer already ran does exactly this) must leave B armed.
  event_loop loop;
  std::atomic<bool> a_fired{false};
  timer_id a{};
  loop.sync([&] {
    a = loop.schedule_after(msec(1), [&] { a_fired.store(true); });
  });
  ASSERT_TRUE(wait_until([&] { return a_fired.load(); }, 2000ms));
  std::atomic<bool> b_fired{false};
  timer_id b{};
  loop.sync([&] {
    b = loop.schedule_after(msec(5), [&] { b_fired.store(true); });
    loop.cancel(a);
  });
  EXPECT_NE(a, b);
  EXPECT_EQ(a & 0xffffffffu, b & 0xffffffffu) << "B did not reuse A's slot";
  EXPECT_TRUE(wait_until([&] { return b_fired.load(); }, 2000ms))
      << "cancelling a fired id disarmed the timer in its recycled slot";
}

TEST(EventLoop, PostRunsOnLoopThread) {
  event_loop loop;
  std::atomic<bool> ran{false};
  bool on_loop = false;
  loop.post([&] {
    on_loop = loop.on_loop_thread();
    ran.store(true);
  });
  ASSERT_TRUE(wait_until([&] { return ran.load(); }, 2000ms));
  EXPECT_TRUE(on_loop);
}

TEST(EventLoop, SyncRunsInlineOnLoopThread) {
  // sync() from inside a loop callback must not deadlock.
  event_loop loop;
  std::atomic<bool> done{false};
  loop.sync([&] {
    loop.sync([&] { done.store(true); });
  });
  EXPECT_TRUE(done.load());
}

TEST(EventLoop, NowIsMonotonic) {
  event_loop loop;
  const time_point a = loop.now();
  std::this_thread::sleep_for(5ms);
  const time_point b = loop.now();
  EXPECT_GT(b, a);
}

TEST(EventLoop, StopIsIdempotentAndDropsTimers) {
  event_loop loop;
  std::atomic<bool> ran{false};
  loop.sync([&] {
    loop.schedule_after(sec(60), [&] { ran.store(true); });
  });
  loop.stop();
  loop.stop();  // second stop is a no-op
  EXPECT_FALSE(ran.load());
  EXPECT_FALSE(loop.running());
}

TEST(LoopPool, RoundRobinAssignment) {
  loop_pool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(&pool.at(0), &pool.at(2));
  EXPECT_EQ(&pool.at(1), &pool.at(3));
  EXPECT_NE(&pool.at(0), &pool.at(1));
  pool.stop_all();
}

// ---- integration: services on loops ----------------------------------------

struct instance {
  std::unique_ptr<loop_udp_transport> transport;
  std::unique_ptr<service::leader_election_service> svc;
};

/// Builds `n` services on `loop`, all members of group 1, with port-0
/// sockets (the roster is distributed after binding).
std::vector<instance> start_cluster(event_loop& loop, std::size_t n,
                                    duration detection) {
  udp_roster bind_roster;
  for (std::size_t i = 0; i < n; ++i) {
    bind_roster[nid(i)] = udp_endpoint{"127.0.0.1", 0};
  }
  std::vector<instance> cluster(n);
  udp_roster real_roster;
  for (std::size_t i = 0; i < n; ++i) {
    cluster[i].transport =
        std::make_unique<loop_udp_transport>(loop, nid(i), bind_roster);
    real_roster[nid(i)] =
        udp_endpoint{"127.0.0.1", cluster[i].transport->bound_port()};
  }
  std::vector<node_id> roster;
  for (std::size_t i = 0; i < n; ++i) roster.push_back(nid(i));
  loop.sync([&] {
    for (std::size_t i = 0; i < n; ++i) {
      cluster[i].transport->set_roster(real_roster);
    }
    for (std::size_t i = 0; i < n; ++i) {
      service::service_config cfg;
      cfg.self = nid(i);
      cfg.roster = roster;
      cfg.alg = election::algorithm::omega_lc;
      cluster[i].svc = std::make_unique<service::leader_election_service>(
          loop, loop, *cluster[i].transport, cfg);
      cluster[i].svc->register_process(pid(i));
      service::join_options opts;
      opts.qos.detection_time = detection;
      cluster[i].svc->join_group(pid(i), group_id{1}, opts);
    }
  });
  return cluster;
}

/// All live services agree on one valid leader? (Runs on the loop.)
bool agreed(event_loop& loop, std::vector<instance>& cluster,
            std::optional<process_id>* who = nullptr) {
  bool ok = false;
  loop.sync([&] {
    std::optional<process_id> first;
    ok = true;
    for (auto& inst : cluster) {
      if (!inst.svc) continue;
      const auto view = inst.svc->leader(group_id{1});
      if (!view.has_value()) {
        ok = false;
        return;
      }
      if (!first.has_value()) first = view;
      if (view != first) {
        ok = false;
        return;
      }
    }
    ok = ok && first.has_value();
    if (who != nullptr) *who = first;
  });
  return ok;
}

TEST(EventLoopCluster, ElectKillReelectOnSharedLoop) {
  // Eight services, one loop thread, real UDP: elect a leader, kill its
  // node (service + socket torn down on the live loop), and the survivors
  // must agree on a new one.
  constexpr std::size_t kNodes = 8;
  event_loop loop;
  auto cluster = start_cluster(loop, kNodes, msec(300));

  std::optional<process_id> first;
  ASSERT_TRUE(wait_until([&] { return agreed(loop, cluster, &first); }, 10000ms))
      << "no initial agreement within the deadline";
  ASSERT_TRUE(first.has_value());

  // Kill the leader's whole node: destroy the service, then its transport
  // — from the loop thread, while the others keep sending to its address
  // (teardown mid-traffic).
  const auto victim = static_cast<std::size_t>(first->value());
  ASSERT_LT(victim, kNodes);
  loop.sync([&] {
    cluster[victim].svc.reset();
    cluster[victim].transport.reset();
  });

  // Survivors keep trusting the dead leader until the FD times out, so the
  // condition is agreement on a *different* leader.
  std::optional<process_id> second;
  ASSERT_TRUE(wait_until(
      [&] { return agreed(loop, cluster, &second) && second != first; },
      15000ms))
      << "no re-election after the leader was killed";
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*second, *first);

  loop.sync([&] {
    for (auto& inst : cluster) {
      inst.svc.reset();
      inst.transport.reset();
    }
  });
  loop.stop();
}

TEST(EventLoopCluster, ThreeLoopsElectWithinTwoSeconds) {
  // Three services, each on its own loop of a pool, agree on a leader
  // within two seconds of wall-clock time at a 300 ms detection bound:
  // every datagram crosses loop threads, and each loop has its own clock.
  constexpr std::size_t kNodes = 3;
  loop_pool pool(kNodes);
  udp_roster bind_roster;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bind_roster[nid(i)] = udp_endpoint{"127.0.0.1", 0};
  }
  std::vector<instance> cluster(kNodes);
  udp_roster real_roster;
  for (std::size_t i = 0; i < kNodes; ++i) {
    cluster[i].transport =
        std::make_unique<loop_udp_transport>(pool.at(i), nid(i), bind_roster);
    real_roster[nid(i)] =
        udp_endpoint{"127.0.0.1", cluster[i].transport->bound_port()};
  }
  std::vector<node_id> roster;
  for (std::size_t i = 0; i < kNodes; ++i) roster.push_back(nid(i));
  for (std::size_t i = 0; i < kNodes; ++i) {
    event_loop& loop = pool.at(i);
    loop.sync([&, i] {
      cluster[i].transport->set_roster(real_roster);
      service::service_config cfg;
      cfg.self = nid(i);
      cfg.roster = roster;
      cfg.alg = election::algorithm::omega_lc;
      cluster[i].svc = std::make_unique<service::leader_election_service>(
          loop, loop, *cluster[i].transport, cfg);
      cluster[i].svc->register_process(pid(i));
      service::join_options opts;
      opts.qos.detection_time = msec(300);
      cluster[i].svc->join_group(pid(i), group_id{1}, opts);
    });
  }

  const auto agreed_across_loops = [&] {
    std::vector<std::optional<process_id>> views(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      pool.at(i).sync(
          [&, i] { views[i] = cluster[i].svc->leader(group_id{1}); });
    }
    return views[0].has_value() && views[1] == views[0] &&
           views[2] == views[0];
  };
  EXPECT_TRUE(wait_until(agreed_across_loops, 2000ms))
      << "no agreement across three loops within 2 s";

  for (std::size_t i = 0; i < kNodes; ++i) {
    pool.at(i).sync([&, i] {
      cluster[i].svc.reset();
      cluster[i].transport.reset();
    });
  }
  pool.stop_all();
}

TEST(EventLoopCluster, TeardownMidReceiveIsClean) {
  // Destroy one endpoint's transport on the loop while a peer floods it:
  // datagrams in flight for the dead fd must be dropped without touching
  // freed state (ASan exercises this).
  event_loop loop;
  auto roster = make_roster(0, 2);  // port 0: ephemeral
  auto a = std::make_unique<loop_udp_transport>(loop, node_id{0}, roster);
  auto b = std::make_unique<loop_udp_transport>(loop, node_id{1}, roster);
  udp_roster real_roster;
  real_roster[node_id{0}] = udp_endpoint{"127.0.0.1", a->bound_port()};
  real_roster[node_id{1}] = udp_endpoint{"127.0.0.1", b->bound_port()};
  std::atomic<int> received{0};
  loop.sync([&] {
    a->set_roster(real_roster);
    b->set_roster(real_roster);
    b->set_receive_handler(
        [&](const net::datagram&) { received.fetch_add(1); });
  });
  const std::vector<std::byte> payload(32, std::byte{0xAB});
  for (int burst = 0; burst < 10; ++burst) {
    loop.sync([&] {
      for (int i = 0; i < 20; ++i) a->send(node_id{1}, payload);
    });
  }
  ASSERT_TRUE(wait_until([&] { return received.load() > 0; }, 2000ms));
  // Tear b down from the loop thread while a's last burst may still be in
  // the socket buffer, then keep sending to the dead address.
  loop.sync([&] { b.reset(); });
  loop.sync([&] {
    for (int i = 0; i < 20; ++i) a->send(node_id{1}, payload);
  });
  std::this_thread::sleep_for(50ms);
  loop.sync([&] { a.reset(); });
  loop.stop();
}

TEST(EventLoopCluster, PortZeroRebindDelivers) {
  // Bind everything on port 0, then distribute the real ports via
  // set_roster — the pattern the fig14 bench and tests use to avoid
  // hard-coded port clashes.
  event_loop loop;
  auto roster = make_roster(0, 2);
  loop_udp_transport a(loop, node_id{0}, roster);
  loop_udp_transport b(loop, node_id{1}, roster);
  ASSERT_NE(a.bound_port(), 0);
  ASSERT_NE(b.bound_port(), 0);
  ASSERT_NE(a.bound_port(), b.bound_port());

  udp_roster real_roster;
  real_roster[node_id{0}] = udp_endpoint{"127.0.0.1", a.bound_port()};
  real_roster[node_id{1}] = udp_endpoint{"127.0.0.1", b.bound_port()};
  std::atomic<int> received{0};
  node_id got_from;
  loop.sync([&] {
    a.set_roster(real_roster);
    b.set_roster(real_roster);
    b.set_receive_handler([&](const net::datagram& d) {
      got_from = d.from;
      received.fetch_add(1);
    });
  });
  const std::vector<std::byte> payload = {std::byte{7}};
  loop.sync([&] { a.send(node_id{1}, payload); });
  ASSERT_TRUE(wait_until([&] { return received.load() >= 1; }, 2000ms));
  loop.sync([&] { EXPECT_EQ(got_from, node_id{0}); });
}

}  // namespace
}  // namespace omega::runtime
