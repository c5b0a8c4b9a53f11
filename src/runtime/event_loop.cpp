#include "runtime/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include "runtime/loop_transport.hpp"

namespace omega::runtime {

loop_stats& loop_stats::operator+=(const loop_stats& o) {
  epoll_waits += o.epoll_waits;
  eventfd_reads += o.eventfd_reads;
  sendmmsg_calls += o.sendmmsg_calls;
  sendto_calls += o.sendto_calls;
  recvmmsg_calls += o.recvmmsg_calls;
  recvfrom_calls += o.recvfrom_calls;
  datagrams_sent += o.datagrams_sent;
  datagrams_received += o.datagrams_received;
  bytes_sent += o.bytes_sent;
  bytes_received += o.bytes_received;
  timers_fired += o.timers_fired;
  tasks_run += o.tasks_run;
  iterations += o.iterations;
  return *this;
}

event_loop::event_loop(options opts)
    : opts_(opts), epoch_(std::chrono::steady_clock::now()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const int err = errno;
    ::close(epoll_fd_);
    throw std::system_error(err, std::generic_category(), "eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  rx_buf_.resize(kBatch * rx_slot_bytes);
  rx_addrs_.resize(kBatch);
  thread_ = std::thread([this] { loop(); });
}

event_loop::~event_loop() {
  stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

time_point event_loop::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return time_point{std::chrono::duration_cast<duration>(elapsed)};
}

timer_id event_loop::schedule_at(time_point when, unique_task fn) {
  timer_id id;
  {
    std::lock_guard lock(mu_);
    id = timers_.push(when, std::move(fn));
  }
  // The loop recomputes its epoll timeout before every wait, so a timer
  // armed from the loop thread (re-arming heartbeats — the steady state)
  // needs no eventfd kick; only cross-thread arming must interrupt a wait
  // that may already be in flight.
  if (!on_loop_thread()) wake();
  return id;
}

timer_id event_loop::schedule_after(duration after, unique_task fn) {
  if (after < duration{0}) after = duration{0};
  return schedule_at(now() + after, std::move(fn));
}

void event_loop::cancel(timer_id id) {
  std::lock_guard lock(mu_);
  timers_.cancel(id);
}

void event_loop::post(std::function<void()> fn) {
  {
    std::lock_guard lock(mu_);
    posted_.push_back(std::move(fn));
  }
  if (!on_loop_thread()) wake();  // see schedule_at
}

void event_loop::sync(const std::function<void()>& fn) {
  if (on_loop_thread() || !running()) {
    fn();
    return;
  }
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  post([&] {
    fn();
    std::lock_guard l(done_mu);
    done = true;
    done_cv.notify_all();
  });
  std::unique_lock l(done_mu);
  done_cv.wait(l, [&] { return done; });
}

void event_loop::stop() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
  // Run (don't drop) tasks posted while the stop raced in: a `sync` that
  // lost that race is blocked on its closure, and post-join this thread is
  // the loop's single-threaded successor anyway.
  run_posted();
}

bool event_loop::running() const {
  std::lock_guard lock(mu_);
  return !stopping_;
}

loop_stats event_loop::stats_snapshot() {
  loop_stats out;
  sync([&] { out = stats_; });
  return out;
}

void event_loop::add_socket(int fd, loop_udp_transport* t) {
  sync([&] {
    sockets_.emplace(fd, t);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  });
}

void event_loop::remove_socket(int fd) {
  sync([&] {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    sockets_.erase(fd);
  });
}

void event_loop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void event_loop::run_posted() {
  {
    std::lock_guard lock(mu_);
    running_.swap(posted_);
  }
  for (auto& fn : running_) {
    fn();
    ++stats_.tasks_run;
  }
  running_.clear();
}

void event_loop::run_due_timers() {
  // Fire everything due within `kTimerSlack` of this wakeup: co-scheduled
  // services' heartbeat ticks land in one batch (and one send-ring flush)
  // instead of one wakeup each. One pop per lock: a callback may cancel the
  // next due timer.
  for (;;) {
    time_point when{};
    unique_task fn;
    {
      std::lock_guard lock(mu_);
      if (!timers_.pop(now() + kTimerSlack, when, fn)) return;
    }
    fn();
    ++stats_.timers_fired;
  }
}

void event_loop::loop() {
  std::vector<epoll_event> events(64);
  for (;;) {
    int timeout_ms = -1;
    {
      std::lock_guard lock(mu_);
      if (stopping_) break;
      if (!posted_.empty()) {
        timeout_ms = 0;
      } else if (const auto next = timers_.next()) {
        const duration until = *next - now();
        if (until <= duration{0}) {
          timeout_ms = 0;
        } else {
          // Round up so we never spin a whole millisecond early.
          timeout_ms = static_cast<int>((until.count() + 999) / 1000);
        }
      }
    }
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    ++stats_.epoll_waits;
    ++stats_.iterations;

    if (n < 0 && errno != EINTR) break;  // epoll fd gone: shutting down

    run_posted();
    run_due_timers();

    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
        ++stats_.eventfd_reads;
        continue;
      }
      // Look the transport up per event: a posted task or timer above may
      // have torn it down mid-iteration (loop teardown mid-receive).
      auto it = sockets_.find(fd);
      if (it != sockets_.end()) it->second->drain_rx();
    }

    // End-of-tick flush: every datagram enqueued by the timers, tasks and
    // receive handlers of this iteration goes out now, coalesced per
    // socket into sendmmsg batches.
    for (auto& [fd, t] : sockets_) t->flush();
  }
}

loop_pool::loop_pool(std::size_t loops, event_loop::options opts) {
  if (loops == 0) loops = 1;
  loops_.reserve(loops);
  for (std::size_t i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<event_loop>(opts));
  }
}

loop_stats loop_pool::total_stats() {
  loop_stats total;
  for (auto& l : loops_) total += l->stats_snapshot();
  return total;
}

void loop_pool::stop_all() {
  for (auto& l : loops_) l->stop();
}

}  // namespace omega::runtime
