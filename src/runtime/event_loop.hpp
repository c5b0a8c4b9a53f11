// The real-time runtime: one epoll-driven loop thread hosting any number of
// service instances.
//
// An `event_loop` implements the `clock_source`/`timer_service` pair the
// protocol stack is written against *and* owns the UDP sockets of every
// `loop_udp_transport` registered with it, so N services cost one thread,
// one epoll fd and one timer queue — `common/timer_heap`, the core the
// simulator also runs on. A one-loop `loop_pool` is the small-deployment
// case; a few loops spread hundreds of services over a few cores.
//
// Syscall batching (DESIGN.md §10): in batched mode (the default) outbound
// datagrams are not written with one sendto(2) each. Every transport keeps
// a send ring of (destination, refcounted payload) entries; the loop
// flushes each ring once per iteration with a single sendmmsg(2), so a
// multicast fan-out — already encoded exactly once into a pooled
// `net::shared_payload` by the service layer — crosses the syscall boundary
// as one encode + one syscall, zero per-destination copies. Inbound,
// readiness is level-triggered and each ready socket is drained with
// recvmmsg(2). Timers due within `kTimerSlack` of a wakeup run together,
// which keeps the heartbeat ticks of co-scheduled services clustered and
// their datagrams arriving in recvmmsg-sized bursts.
//
// Threading: everything protocol-visible (timers, receive handlers, sends,
// the payload pool) runs on the loop thread — services sharing a loop share
// its thread and are never concurrent with each other. `post`/`sync` are
// the only thread-safe entry points.
#pragma once

#include <netinet/in.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/executor.hpp"
#include "common/time.hpp"
#include "common/timer_heap.hpp"
#include "net/shared_payload.hpp"

namespace omega::runtime {

class loop_udp_transport;

/// Raw monotonic wall clock in microseconds (std::chrono::steady_clock, no
/// per-loop epoch). Loops' `now()` timelines each start at their own
/// construction instant and are NOT comparable across loops; this is, for
/// all loops and threads of one host. Deployments install it as the
/// observability sink's wall-clock source (sink::set_wall_clock) so trace
/// events carry the dual timestamp the causal DAG's cross-node skew check
/// needs.
[[nodiscard]] inline std::int64_t monotonic_wall_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Loop-wide I/O accounting, owned by the loop thread (read it via
/// `stats_snapshot`). Syscall counters cover every network-related syscall
/// the loop issues, so `syscalls() / datagrams moved` is an honest
/// syscalls-per-datagram figure for the fig14 bench.
struct loop_stats {
  std::uint64_t epoll_waits = 0;
  std::uint64_t eventfd_reads = 0;
  std::uint64_t sendmmsg_calls = 0;
  std::uint64_t sendto_calls = 0;
  std::uint64_t recvmmsg_calls = 0;
  std::uint64_t recvfrom_calls = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t timers_fired = 0;
  std::uint64_t tasks_run = 0;
  std::uint64_t iterations = 0;

  [[nodiscard]] std::uint64_t syscalls() const {
    return epoll_waits + eventfd_reads + sendmmsg_calls + sendto_calls +
           recvmmsg_calls + recvfrom_calls;
  }

  loop_stats& operator+=(const loop_stats& o);
};

class event_loop final : public clock_source, public timer_service {
 public:
  struct options {
    /// Batched syscalls (sendmmsg/recvmmsg + per-tick send rings). Off =
    /// the per-datagram baseline: every send is an immediate sendto(2),
    /// every receive a single recvfrom(2) — the measurable control in
    /// fig14_live.
    bool batching = true;
  };

  explicit event_loop(options opts);
  event_loop() : event_loop(options{}) {}
  ~event_loop() override;

  event_loop(const event_loop&) = delete;
  event_loop& operator=(const event_loop&) = delete;

  /// Monotonic time since loop start. Every service on the loop shares
  /// this timeline; other loops' timelines are not comparable to it (use
  /// `monotonic_wall_us` across loops).
  [[nodiscard]] time_point now() const override;

  timer_id schedule_at(time_point when, unique_task fn) override;
  timer_id schedule_after(duration after, unique_task fn) override;
  void cancel(timer_id id) override;

  /// Runs `fn` on the loop thread as soon as possible. Thread-safe.
  void post(std::function<void()> fn);

  /// Runs `fn` on the loop thread and blocks until it returned. Runs
  /// inline when already on the loop thread (or after `stop`), so it is
  /// safe from receive handlers and timers.
  void sync(const std::function<void()>& fn);

  /// Stops and joins the loop thread; pending timers/tasks are dropped.
  /// Registered transports stay usable for teardown (their destructors
  /// then mutate loop state directly, single-threaded).
  void stop();

  [[nodiscard]] bool running() const;
  [[nodiscard]] bool on_loop_thread() const {
    return std::this_thread::get_id() == thread_.get_id();
  }

  [[nodiscard]] const options& opts() const { return opts_; }

  /// Shared payload pool of every transport on this loop (loop thread
  /// only, like the encode paths that feed it).
  [[nodiscard]] net::payload_pool& pool() { return pool_; }

  /// Coherent copy of the I/O counters (syncs onto the loop thread while
  /// it runs).
  [[nodiscard]] loop_stats stats_snapshot();

 private:
  friend class loop_udp_transport;

  /// Socket registration, called by loop_udp_transport construction /
  /// destruction (syncs onto the loop thread while the loop runs).
  void add_socket(int fd, loop_udp_transport* t);
  void remove_socket(int fd);

  void loop();
  void run_posted();
  void run_due_timers();
  void wake();

  /// Max datagrams per sendmmsg/recvmmsg call (and per rx buffer array).
  static constexpr std::size_t kBatch = 64;
  /// Timers due within this much of a wakeup fire on it. Clusters the
  /// heartbeat ticks of services sharing the loop so their fan-outs
  /// coalesce; sub-millisecond, far inside any FD safety margin.
  static constexpr duration kTimerSlack = usec(500);

  options opts_;
  std::chrono::steady_clock::time_point epoch_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  timer_heap timers_;
  std::vector<std::function<void()>> posted_;
  bool stopping_ = false;

  // Loop-thread state (no locking): the buffer `run_posted` swaps with
  // `posted_`, registered sockets, shared pool, and the recvmmsg scratch
  // shared by every transport on the loop (drains are serial, so one batch
  // x slot buffer array serves all sockets).
  static constexpr std::size_t rx_slot_bytes = 16384;
  std::vector<std::function<void()>> running_;
  std::unordered_map<int, loop_udp_transport*> sockets_;
  net::payload_pool pool_{1024};
  loop_stats stats_;
  std::vector<std::byte> rx_buf_;
  std::vector<sockaddr_in> rx_addrs_;

  std::thread thread_;
};

/// A small shard of event loops: services are assigned round-robin, which
/// is how the fig14 bench (and any deployment hosting hundreds of
/// instances) spreads protocol work over a few cores without giving every
/// service its own thread.
class loop_pool {
 public:
  explicit loop_pool(std::size_t loops,
                     event_loop::options opts = event_loop::options{});

  [[nodiscard]] std::size_t size() const { return loops_.size(); }
  /// Loop for shard `i` (round-robin: `i % size()`).
  [[nodiscard]] event_loop& at(std::size_t i) {
    return *loops_[i % loops_.size()];
  }

  /// Sum of every loop's counters.
  [[nodiscard]] loop_stats total_stats();

  void stop_all();

 private:
  std::vector<std::unique_ptr<event_loop>> loops_;
};

}  // namespace omega::runtime
