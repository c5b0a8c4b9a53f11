// live_failover: 256 real-UDP services on one loop pool, the agreed leader
// of one group killed on an open-loop schedule.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis.hpp"
#include "common/random.hpp"
#include "decorators.hpp"
#include "election/elector.hpp"
#include "manifest.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/loop_transport.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace e2e {

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

namespace rt = omega::runtime;

// Deployment shape: 32 groups of 8 on 3 loops, so with the driver thread a
// run fits the 4 vCPUs it was sized on.
constexpr std::size_t kServices = 256;
constexpr std::size_t kGroupSize = 8;
constexpr std::size_t kGroups = kServices / kGroupSize;
constexpr std::size_t kLoops = 3;
// 400 ms detection bound: the service picks eta = 100 ms, so each service
// sends ~70 datagrams/s to its 7 peers.
constexpr omega::duration kDetection = omega::msec(400);
constexpr std::int64_t kDetectionNs = 400'000'000;
// Open-loop kill schedule: one kill every 160 ms round-robin over the
// groups (each group every 5.1 s), restarts 1.5-2.5 s after their kill.
// A 30 s window holds ~187 kills; a p90 needs >= 10 samples beyond it, so
// runs with fewer than 100 kills fail.
constexpr std::int64_t kKillIntervalNs = 160'000'000;
constexpr double kRestartMinS = 1.5;
constexpr double kRestartMaxS = 2.5;
// After set-up the first seconds still carry join and rate-negotiation
// traffic; the window starts once it has died down.
constexpr double kSettleS = 3.0;
// CPU is sampled per 2 s chunk of the window — the HELLO anti-entropy
// period, so every chunk holds the same work — and cpu_ms_per_node_s is
// the median chunk, which keeps short bursts of host slowness out of it.
constexpr std::int64_t kChunkNs = 2'000'000'000;
// Every loop thread runs the host reference this often during the window.
constexpr std::int64_t kReferenceEveryNs = 250'000'000;
constexpr std::int64_t kAgreementTimeoutNs = 10'000'000'000;
constexpr double kStreamCaptureS = 3.0;
constexpr std::size_t kReplayAlives = 20000;
// The traced run's overhead phase: pairs of kChunkNs chunks, recording off
// in one and on in the other.
constexpr std::size_t kOverheadPairs = 6;

omega::node_id nid(std::uint32_t pid) { return omega::node_id{pid}; }

void add(rt::transport_net_stats& acc, const rt::transport_net_stats& s) {
  acc.datagrams_sent += s.datagrams_sent;
  acc.datagrams_received += s.datagrams_received;
  acc.bytes_sent += s.bytes_sent;
  acc.bytes_received += s.bytes_received;
  acc.send_err_eagain += s.send_err_eagain;
  acc.send_err_enobufs += s.send_err_enobufs;
  acc.send_err_other += s.send_err_other;
  acc.rx_unknown_peer += s.rx_unknown_peer;
  acc.rx_truncated += s.rx_truncated;
  acc.send_queue_drops += s.send_queue_drops;
  acc.send_queue_hwm = std::max(acc.send_queue_hwm, s.send_queue_hwm);
}

struct member {
  std::uint32_t pid = 0;
  omega::incarnation inc = 1;
  std::unique_ptr<rt::loop_udp_transport> socket;
  std::unique_ptr<traced_clock> clock;
  std::unique_ptr<traced_transport> wire;
  std::unique_ptr<omega::service::leader_election_service> svc;
};

struct group_state {
  std::size_t index = 0;
  omega::group_id id;
  std::vector<member> members;
  rt::udp_roster roster;
  std::vector<omega::node_id> nodes;
  // Loop-thread state while the pool runs.
  std::vector<log_event> log;
  std::vector<kill_record> kills;
  std::vector<std::uint64_t> kill_ids;
  std::vector<std::int64_t> kill_late_ns;
  std::vector<std::int64_t> restart_ns;
  std::vector<std::string> errors;
  std::int64_t first_agreed_ns = -1;
};

/// Counters read on one loop thread at a window edge.
struct loop_snapshot {
  rt::loop_stats io;
  rt::transport_net_stats net;  // every socket the loop ever hosted
  std::uint64_t queue_depth = 0;
  std::uint64_t alive_sent = 0;
  std::uint64_t svc_received = 0;  // datagrams the services' upcalls took
  std::uint64_t monitors = 0;
  std::uint64_t live_services = 0;
  std::int64_t thread_cpu_ns = 0;
  // Traced runs, window end only.
  thread_trace::wire_counts wire;
  std::array<thread_trace::aggregate, static_cast<std::size_t>(span_name::count_)>
      agg{};
  std::vector<std::int32_t> timer_late_us;
  std::array<std::vector<std::vector<std::byte>>, kWireKinds> samples;
};

rt::loop_stats minus(rt::loop_stats a, const rt::loop_stats& b) {
  a.epoll_waits -= b.epoll_waits;
  a.eventfd_reads -= b.eventfd_reads;
  a.sendmmsg_calls -= b.sendmmsg_calls;
  a.sendto_calls -= b.sendto_calls;
  a.recvmmsg_calls -= b.recvmmsg_calls;
  a.recvfrom_calls -= b.recvfrom_calls;
  a.datagrams_sent -= b.datagrams_sent;
  a.datagrams_received -= b.datagrams_received;
  a.bytes_sent -= b.bytes_sent;
  a.bytes_received -= b.bytes_received;
  a.timers_fired -= b.timers_fired;
  a.tasks_run -= b.tasks_run;
  a.iterations -= b.iterations;
  return a;
}

class live_deployment {
 public:
  explicit live_deployment(tracer* trace) : trace_(trace) {}
  ~live_deployment() { teardown(); }

  live_deployment(const live_deployment&) = delete;
  live_deployment& operator=(const live_deployment&) = delete;

  /// Builds the pool and every service; returns the set-up time in seconds
  /// (pool creation until every group first agreed), or a negative value
  /// when some group never agreed.
  double build() {
    const std::int64_t t0 = steady_ns();
    pool_ = std::make_unique<rt::loop_pool>(kLoops);
    agreed_groups_.store(0);
    groups_.clear();
    groups_.resize(kGroups);
    for (std::size_t g = 0; g < kGroups; ++g) {
      group_state& gs = groups_[g];
      gs.index = g;
      gs.id = omega::group_id{static_cast<std::uint32_t>(g + 1)};
      gs.members.resize(kGroupSize);
      gs.log.reserve(1 << 14);
      for (std::size_t j = 0; j < kGroupSize; ++j) {
        member& m = gs.members[j];
        m.pid = static_cast<std::uint32_t>(g * kGroupSize + j);
        m.socket = std::make_unique<rt::loop_udp_transport>(
            loop_of(gs), nid(m.pid),
            rt::udp_roster{{nid(m.pid), rt::udp_endpoint{"127.0.0.1", 0}}});
        gs.roster[nid(m.pid)] =
            rt::udp_endpoint{"127.0.0.1", m.socket->bound_port()};
        gs.nodes.push_back(nid(m.pid));
      }
    }
    for (group_state& gs : groups_) {
      loop_of(gs).sync([this, &gs] {
        for (member& m : gs.members) {
          m.socket->set_roster(gs.roster);
          gs.log.push_back({steady_ns(), log_event::kind::up, m.pid, -1});
          start_service(gs, m);
        }
      });
    }
    const std::int64_t deadline = steady_ns() + kAgreementTimeoutNs;
    while (agreed_groups_.load(std::memory_order_acquire) < kGroups &&
           steady_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::int64_t last = -1;
    for (group_state& gs : groups_) {
      std::int64_t first = -1;
      loop_of(gs).sync([&] { first = gs.first_agreed_ns; });
      if (first < 0) return -1.0;
      last = std::max(last, first);
    }
    return static_cast<double>(last - t0) * 1e-9;
  }

  /// Destroys every service on its loop thread, then stops the pool.
  void teardown() {
    if (!pool_) return;
    for (group_state& gs : groups_) {
      loop_of(gs).sync([&gs] {
        for (member& m : gs.members) retire(m);
      });
    }
    pool_->stop_all();
    pool_.reset();
  }

  /// Reads every loop's counters (on the loop threads). `edge` 0 opens the
  /// traced window, 1 closes it.
  std::vector<loop_snapshot> snapshot(int edge) {
    std::vector<loop_snapshot> out(kLoops);
    for (std::size_t l = 0; l < kLoops; ++l) {
      pool_->at(l).sync([&, l] {
        loop_snapshot& s = out[l];
        s.io = pool_->at(l).stats_snapshot();
        s.net = retired_net_[l];
        s.alive_sent = retired_alive_[l];
        s.svc_received = retired_received_[l];
        for (group_state& gs : groups_) {
          if (gs.index % kLoops != l) continue;
          for (member& m : gs.members) {
            if (!m.svc) continue;
            add(s.net, m.socket->stats());
            s.queue_depth += m.socket->queue_depth();
            s.alive_sent += m.svc->stats().alive_sent;
            s.svc_received += m.svc->stats().datagrams_received;
            s.monitors += m.svc->failure_detector().monitor_count();
            ++s.live_services;
          }
        }
        s.thread_cpu_ns = thread_cpu_ns();
        if (trace_ == nullptr) return;
        thread_trace& t = trace_->local();
        if (edge == 0) {
          t.begin_window();
          return;
        }
        t.sampling = false;
        s.wire = t.wire;
        for (std::size_t n = 0; n < s.agg.size(); ++n) {
          s.agg[n] = t.totals(static_cast<span_name>(n));
        }
        s.timer_late_us = t.timer_late_us;
        s.samples = t.samples;
      });
    }
    return out;
  }

  /// Kills the agreed leader of group `g` (on its loop thread).
  void post_kill(std::size_t g, std::int64_t due_ns, std::uint64_t kill_id) {
    group_state& gs = groups_[g];
    loop_of(gs).post([this, &gs, due_ns, kill_id] { kill(gs, due_ns, kill_id); });
  }

  /// Runs the host reference once on every loop thread, inside CPU chunk
  /// `chunk`.
  void post_reference(std::size_t chunk) {
    for (std::size_t l = 0; l < kLoops; ++l) {
      pool_->at(l).post([this, l, chunk] {
        const std::int64_t c0 = thread_cpu_ns();
        const reference_sample r = reference_[l]->run();
        references_[l].push_back({chunk, r, thread_cpu_ns() - c0});
      });
    }
  }

  struct reference_run {
    std::size_t chunk = 0;
    reference_sample timed;
    std::int64_t cpu_ns = 0;  // the whole run, warm-up pass included
  };
  /// Reference runs per loop; valid once the pool has stopped.
  [[nodiscard]] const std::array<std::vector<reference_run>, kLoops>& references()
      const {
    return references_;
  }

  /// Restarts the victim of the group's kill slot `slot`, if it had one.
  void post_restart(std::size_t g, std::size_t slot) {
    group_state& gs = groups_[g];
    loop_of(gs).post([this, &gs, slot] { restart(gs, slot); });
  }

  /// Polls until every group agrees (or the timeout passes).
  void wait_all_agreed() {
    const std::int64_t deadline = steady_ns() + kAgreementTimeoutNs;
    for (;;) {
      bool all = true;
      for (group_state& gs : groups_) {
        bool ok = false;
        loop_of(gs).sync([&] { ok = agreed_leader(gs, true).has_value(); });
        all = all && ok;
      }
      if (all || steady_ns() > deadline) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// Switches the decorators' recording on or off on every loop thread.
  void set_recording(bool on) {
    for (std::size_t l = 0; l < kLoops; ++l) {
      pool_->at(l).sync([this, on] { trace_->local().recording = on; });
    }
  }

  /// Captures member 0's inbound datagrams for `seconds`.
  std::vector<captured_datagram> capture_stream(double seconds) {
    std::vector<captured_datagram> stream;
    group_state& gs = groups_[0];
    member& m = gs.members[0];
    loop_of(gs).sync([&] { m.wire->capture_stream(&stream); });
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    loop_of(gs).sync([&] { m.wire->capture_stream(nullptr); });
    return stream;
  }

  /// Valid once the pool has stopped.
  [[nodiscard]] std::vector<group_state>& groups() { return groups_; }

 private:
  rt::event_loop& loop_of(const group_state& gs) {
    return pool_->at(gs.index % kLoops);
  }

  static member* member_of(group_state& gs, std::int64_t pid) {
    for (member& m : gs.members) {
      if (m.pid == pid) return &m;
    }
    return nullptr;
  }

  /// The leader every live member holds, if it is live too. With
  /// `require_all`, every member must be live.
  static std::optional<std::int64_t> agreed_leader(group_state& gs,
                                                   bool require_all) {
    std::optional<std::int64_t> common;
    for (member& m : gs.members) {
      if (!m.svc) {
        if (require_all) return std::nullopt;
        continue;
      }
      const auto view = m.svc->leader(gs.id);
      if (!view) return std::nullopt;
      if (common && *common != view->value()) return std::nullopt;
      common = view->value();
    }
    if (!common) return std::nullopt;
    const member* leader = member_of(gs, *common);
    if (leader == nullptr || !leader->svc) return std::nullopt;
    return common;
  }

  void start_service(group_state& gs, member& m) {
    rt::event_loop& loop = loop_of(gs);
    omega::net::transport* wire = m.socket.get();
    omega::clock_source* clock = &loop;
    omega::timer_service* timers = &loop;
    if (trace_ != nullptr) {
      m.clock = std::make_unique<traced_clock>(loop, *trace_);
      m.wire = std::make_unique<traced_transport>(*m.socket, loop, *trace_);
      wire = m.wire.get();
      clock = m.clock.get();
      timers = m.clock.get();
    }
    omega::service::service_config cfg;
    cfg.self = nid(m.pid);
    cfg.inc = m.inc;
    cfg.roster = gs.nodes;
    cfg.alg = omega::election::algorithm::omega_lc;
    m.svc = std::make_unique<omega::service::leader_election_service>(
        *clock, *timers, *wire, cfg);
    const std::uint32_t pid = m.pid;
    m.svc->set_leader_observer(
        [this, &gs, pid](omega::group_id, std::optional<omega::process_id> leader) {
          const std::int64_t t = steady_ns();
          gs.log.push_back({t, log_event::kind::view, pid,
                            leader ? std::int64_t{leader->value()} : -1});
          if (gs.first_agreed_ns < 0 && agreed_leader(gs, true)) {
            gs.first_agreed_ns = t;
            agreed_groups_.fetch_add(1, std::memory_order_release);
          }
        });
    m.svc->register_process(omega::process_id{pid});
    omega::service::join_options jo;
    jo.qos.detection_time = kDetection;
    m.svc->join_group(omega::process_id{pid}, gs.id, jo);
  }

  /// Destroys a member's service and socket: a crash, no goodbyes.
  static void retire(member& m) {
    m.svc.reset();
    m.wire.reset();
    m.clock.reset();
    m.socket.reset();
  }

  void kill(group_state& gs, std::int64_t due_ns, std::uint64_t kill_id) {
    const std::int64_t t = steady_ns();
    gs.kill_late_ns.push_back(t - due_ns);
    kill_record rec{due_ns, t, -1};
    if (const auto leader = agreed_leader(gs, false)) {
      rec.victim = *leader;
      gs.log.push_back({t, log_event::kind::down,
                        static_cast<std::uint32_t>(*leader), -1});
      if (trace_ != nullptr) trace_->local().begin(span_name::kill, kill_id);
      member& v = *member_of(gs, *leader);
      const std::size_t l = gs.index % kLoops;
      add(retired_net_[l], v.socket->stats());
      retired_alive_[l] += v.svc->stats().alive_sent;
      retired_received_[l] += v.svc->stats().datagrams_received;
      retire(v);
      if (trace_ != nullptr) trace_->local().end();
    }
    gs.kills.push_back(rec);
    gs.kill_ids.push_back(kill_id);
  }

  void restart(group_state& gs, std::size_t slot) {
    const kill_record& rec = gs.kills.at(slot);
    if (rec.victim < 0) return;
    member& m = *member_of(gs, rec.victim);
    if (m.svc) {
      gs.errors.push_back("restart found member " + std::to_string(m.pid) +
                          " alive");
      return;
    }
    const std::int64_t t0 = steady_ns();
    if (trace_ != nullptr) {
      trace_->local().begin(span_name::restart, gs.kill_ids.at(slot));
    }
    gs.log.push_back({t0, log_event::kind::up, m.pid, -1});
    try {
      ++m.inc;
      m.socket = std::make_unique<rt::loop_udp_transport>(loop_of(gs), nid(m.pid),
                                                          gs.roster);
      start_service(gs, m);
    } catch (const std::exception& e) {
      gs.errors.push_back("restart of member " + std::to_string(m.pid) +
                          " failed: " + e.what());
    }
    if (trace_ != nullptr) trace_->local().end();
    gs.restart_ns.push_back(steady_ns() - t0);
  }

  tracer* trace_;
  std::unique_ptr<rt::loop_pool> pool_;
  std::vector<group_state> groups_;
  std::atomic<std::size_t> agreed_groups_{0};
  // Counters of destroyed sockets and services, per loop (loop-thread state).
  std::array<rt::transport_net_stats, kLoops> retired_net_{};
  std::array<std::uint64_t, kLoops> retired_alive_{};
  std::array<std::uint64_t, kLoops> retired_received_{};
  // One host reference per loop thread, and its runs.
  std::array<std::unique_ptr<host_reference>, kLoops> reference_ = [] {
    std::array<std::unique_ptr<host_reference>, kLoops> r;
    for (auto& p : r) p = std::make_unique<host_reference>(reference_kind::sockets);
    return r;
  }();
  std::array<std::vector<reference_run>, kLoops> references_;
};

struct scheduled {
  enum class kind : std::uint8_t { kill, restart, sample, reference };
  std::int64_t due_ns;
  kind what;
  std::size_t group;
  std::size_t slot;  // kill: global kill number; restart: group kill slot;
                     // reference: CPU chunk
};

/// The driver's plan for one window: a CPU sample every kChunkNs, a host
/// reference run every kReferenceEveryNs and the open-loop kill/restart
/// schedule derived from the seed (group order, the phase of the fixed kill
/// interval and every restart delay).
std::vector<scheduled> make_schedule(std::uint64_t seed, std::int64_t from_ns,
                                     std::int64_t to_ns) {
  std::vector<scheduled> out;
  for (std::int64_t t = from_ns + kChunkNs; t + kChunkNs / 2 < to_ns; t += kChunkNs) {
    out.push_back({t, scheduled::kind::sample, 0, 0});
  }
  for (std::int64_t t = from_ns + kReferenceEveryNs / 2; t < to_ns;
       t += kReferenceEveryNs) {
    out.push_back({t, scheduled::kind::reference, 0,
                   static_cast<std::size_t>((t - from_ns) / kChunkNs)});
  }
  omega::rng r(seed * 0x9e3779b97f4a7c15ULL + 0x6b696c6cULL);
  std::vector<std::size_t> order(kGroups);
  for (std::size_t i = 0; i < kGroups; ++i) order[i] = i;
  for (std::size_t i = kGroups - 1; i > 0; --i) {
    std::swap(order[i], order[r.uniform_below(i + 1)]);
  }
  const auto offset = static_cast<std::int64_t>(
      r.uniform(0.0, static_cast<double>(kKillIntervalNs)));
  std::vector<std::size_t> slots(kGroups, 0);
  for (std::size_t k = 0;; ++k) {
    const std::int64_t due =
        from_ns + offset + static_cast<std::int64_t>(k) * kKillIntervalNs;
    if (due >= to_ns) break;
    const std::size_t g = order[k % kGroups];
    out.push_back({due, scheduled::kind::kill, g, k});
    const double delay_s = r.uniform(kRestartMinS, kRestartMaxS);
    out.push_back({due + static_cast<std::int64_t>(delay_s * 1e9),
                   scheduled::kind::restart, g, slots[g]++});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const scheduled& a, const scheduled& b) {
                     return a.due_ns < b.due_ns;
                   });
  return out;
}

void sleep_until_ns(std::int64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

}  // namespace

pass_result run_live(const run_options& opts, tracer* trace) {
  pass_result res;
  live_deployment dep(trace);

  std::vector<double> setups;
  for (int k = 0; k < std::max(1, opts.setup_repeats); ++k) {
    if (k > 0) dep.teardown();
    const double s = dep.build();
    if (s < 0) {
      res.errors.push_back("a group never agreed on a leader during set-up");
      return res;
    }
    setups.push_back(s);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kSettleS));

  const auto before = dep.snapshot(0);
  const double cpu0 = process_cpu_s();
  const std::int64_t w0 = steady_ns();
  const std::int64_t w1 = w0 + std::int64_t{opts.seconds} * 1'000'000'000;

  const std::vector<scheduled> plan =
      make_schedule(opts.seed, w0, w1);
  // (steady ns, process CPU s) at every chunk edge of the window.
  std::vector<std::pair<std::int64_t, double>> edges = {{w0, cpu0}};
  std::size_t next = 0;
  const auto drive_until = [&](std::int64_t limit) {
    for (; next < plan.size() && plan[next].due_ns < limit; ++next) {
      const scheduled& s = plan[next];
      sleep_until_ns(s.due_ns);
      switch (s.what) {
        case scheduled::kind::kill:
          dep.post_kill(s.group, s.due_ns, (std::uint64_t{1} << 63) | s.slot);
          break;
        case scheduled::kind::restart:
          dep.post_restart(s.group, s.slot);
          break;
        case scheduled::kind::sample:
          edges.emplace_back(steady_ns(), process_cpu_s());
          break;
        case scheduled::kind::reference:
          dep.post_reference(s.slot);
          break;
      }
    }
  };
  drive_until(w1);
  sleep_until_ns(w1);
  const auto after = dep.snapshot(1);
  const double cpu1 = process_cpu_s();
  const std::int64_t w1_actual = steady_ns();
  edges.emplace_back(w1_actual, cpu1);
  drive_until(std::numeric_limits<std::int64_t>::max());

  // Lets the last restarts rejoin before the capture and teardown; whether
  // every group ended agreed is checked on the logs below.
  dep.wait_all_agreed();
  std::vector<captured_datagram> stream;
  std::vector<double> overhead_ratios;
  double overhead = 0;
  if (trace != nullptr) {
    stream = dep.capture_stream(kStreamCaptureS);
    // Tracing overhead: process CPU over chunks with the decorators'
    // recording off and on, interleaved off-on-on-off so that a drift of
    // the host's speed cancels within each pair.
    std::vector<double> off;
    std::vector<double> on;
    for (std::size_t c = 0; c < 2 * kOverheadPairs; ++c) {
      const bool recording = c % 4 == 1 || c % 4 == 2;
      dep.set_recording(recording);
      const std::int64_t t0 = steady_ns();
      const double c0 = process_cpu_s();
      sleep_until_ns(t0 + kChunkNs);
      const double rate =
          (process_cpu_s() - c0) / (static_cast<double>(steady_ns() - t0) * 1e-9);
      (recording ? on : off).push_back(rate);
    }
    dep.set_recording(true);
    for (std::size_t p = 0; p < kOverheadPairs; ++p) {
      overhead_ratios.push_back(on[p] / off[p] - 1.0);
    }
    overhead = median(on) / median(off) - 1.0;
  }
  dep.teardown();

  // ---- analysis (every loop thread has stopped) ----------------------------
  const double window_s = static_cast<double>(w1_actual - w0) * 1e-9;
  const double node_s = window_s * static_cast<double>(kServices);
  rt::loop_stats io;
  rt::transport_net_stats net_after;
  rt::transport_net_stats net_before;
  std::uint64_t alive = 0;
  std::uint64_t svc_received = 0;
  std::uint64_t monitors = 0;
  std::uint64_t live_services = 0;
  std::uint64_t depth = 0;
  for (std::size_t l = 0; l < kLoops; ++l) {
    rt::loop_stats d = minus(after[l].io, before[l].io);
    io += d;
    add(net_after, after[l].net);
    add(net_before, before[l].net);
    alive += after[l].alive_sent - before[l].alive_sent;
    svc_received += after[l].svc_received - before[l].svc_received;
    monitors += after[l].monitors;
    live_services += after[l].live_services;
    depth += after[l].queue_depth + before[l].queue_depth;
  }
  // The services count the datagrams their receive upcalls took; the loop
  // counts every datagram it read, including those the socket dropped as
  // truncated or from a non-roster sender.
  const std::uint64_t rx_dropped =
      (net_after.rx_unknown_peer - net_before.rx_unknown_peer) +
      (net_after.rx_truncated - net_before.rx_truncated);
  if (svc_received + rx_dropped != io.datagrams_received) {
    res.errors.push_back("the services received " + std::to_string(svc_received) +
                         " datagrams, loop_stats counts " +
                         std::to_string(io.datagrams_received) + " less " +
                         std::to_string(rx_dropped) + " dropped");
  }
  const std::uint64_t send_errors =
      net_after.send_errors() - net_before.send_errors();
  const std::uint64_t queue_drops =
      net_after.send_queue_drops - net_before.send_queue_drops;

  std::vector<failover> failovers;
  std::size_t scheduled_kills = 0;
  double availability_sum = 0;
  std::uint64_t unjustified = 0;
  std::vector<double> rejoin_ms;
  std::vector<double> kill_late_ms;
  std::vector<double> restart_us;
  std::vector<std::uint64_t> failover_ids;
  for (group_state& gs : dep.groups()) {
    for (const auto& e : gs.errors) res.errors.push_back(e);
    const failover_report rep = analyse_failovers(gs.log, gs.kills);
    for (const auto& e : rep.errors) {
      res.errors.push_back("group " + std::to_string(gs.index) + ": " + e);
    }
    const group_truth truth =
        replay_group_metrics(gs.log, w0, w1_actual, 2 * kDetectionNs);
    if (!truth.metrics.agreed_leader()) {
      res.errors.push_back("group " + std::to_string(gs.index) +
                           " ends the run without an agreed live leader");
    }
    scheduled_kills += gs.kills.size();
    availability_sum += truth.metrics.leader_availability();
    unjustified += truth.metrics.unjustified_demotions();
    for (const auto r : truth.rejoin_ns) rejoin_ms.push_back(r * 1e-6);
    for (const auto l : gs.kill_late_ns) kill_late_ms.push_back(l * 1e-6);
    for (const auto r : gs.restart_ns) restart_us.push_back(r * 1e-3);
    for (const failover& f : rep.failovers) {
      failovers.push_back(f);
      for (std::size_t k = 0; k < gs.kills.size(); ++k) {
        if (gs.kills[k].at_ns == f.kill_ns && gs.kills[k].victim == f.victim) {
          failover_ids.push_back(gs.kill_ids[k]);
        }
      }
    }
  }
  const failover_summary fs = summarise(failovers, scheduled_kills, 3 * kDetectionNs);

  // The window's CPU per service and wall second: the median chunk, each
  // chunk less the reference runs inside it, scaled by the host's speed
  // over the window (nominal over the median reference time).
  std::vector<double> chunk_ref_cpu_s(edges.size(), 0.0);
  std::vector<double> ref_cpu_ns;
  for (const auto& runs : dep.references()) {
    for (const auto& r : runs) {
      chunk_ref_cpu_s[std::min(r.chunk, edges.size() - 1)] +=
          static_cast<double>(r.cpu_ns) * 1e-9;
      ref_cpu_ns.push_back(static_cast<double>(r.timed.cpu_ns));
    }
  }
  std::vector<double> chunk_cpu;
  for (std::size_t i = 1; i < edges.size(); ++i) {
    const double span_s =
        static_cast<double>(edges[i].first - edges[i - 1].first) * 1e-9;
    chunk_cpu.push_back((edges[i].second - edges[i - 1].second - chunk_ref_cpu_s[i - 1]) *
                        1000.0 / (span_s * static_cast<double>(kServices)));
  }
  const double cpu_ms_per_node_s =
      median(chunk_cpu) * kNominalSocketsReferenceCpuNs / median(ref_cpu_ns);
  res.notes.push_back("host reference " + std::to_string(median(ref_cpu_ns) * 1e-6) +
                      " ms CPU (median of " + std::to_string(ref_cpu_ns.size()) +
                      " runs, nominal " + std::to_string(kNominalSocketsReferenceCpuNs * 1e-6) +
                      "); unscaled cpu_ms_per_node_s " +
                      std::to_string(median(chunk_cpu)));
  if (ranked_beyond(fs.failover_ms.size(), 0.9) < 10) {
    res.errors.push_back("only " + std::to_string(fs.failover_ms.size()) +
                         " failover samples: too few for a p90 with 10 beyond it");
  }
  metric_set e2e(kEndToEnd);
  e2e.set("setup_s", median(setups));
  e2e.set("failover_p50_ms", percentile(fs.failover_ms, 0.5));
  e2e.set("failover_p90_ms", percentile(fs.failover_ms, 0.9));
  e2e.set("failover_ok_frac",
          scheduled_kills == 0
              ? 0.0
              : static_cast<double>(fs.ok) / static_cast<double>(scheduled_kills));
  e2e.set("leader_availability", availability_sum / static_cast<double>(kGroups));
  e2e.set("cpu_ms_per_node_s", cpu_ms_per_node_s);
  e2e.set("msgs_per_node_s", static_cast<double>(io.datagrams_sent) / node_s);
  e2e.set("bytes_per_node_s", static_cast<double>(io.bytes_sent) / node_s);
  e2e.set("peak_rss_mb", peak_rss_mb());
  res.end_to_end = e2e.take();

  res.attempted = scheduled_kills;
  res.failed = scheduled_kills - fs.ok;
  res.notes.push_back("kills scheduled " + std::to_string(scheduled_kills) +
                      ", failovers completed " + std::to_string(fs.completed) +
                      ", within 3x the detection bound " + std::to_string(fs.ok));
  res.notes.push_back("window " + std::to_string(window_s) + " s, " +
                      std::to_string(io.datagrams_sent) + " datagrams sent, " +
                      std::to_string(setups.size()) + " set-ups");

  if (trace == nullptr) return res;

  // ---- per-layer metrics of the traced pass --------------------------------
  thread_trace::wire_counts wire;
  std::array<thread_trace::aggregate, static_cast<std::size_t>(span_name::count_)>
      agg{};
  std::vector<double> late;
  std::array<std::vector<std::vector<std::byte>>, kWireKinds> samples;
  double busy = 0;
  for (std::size_t l = 0; l < kLoops; ++l) {
    const loop_snapshot& s = after[l];
    for (std::size_t k = 0; k < kWireKinds; ++k) {
      wire.tx_dgrams[k] += s.wire.tx_dgrams[k];
      wire.tx_bytes[k] += s.wire.tx_bytes[k];
      wire.rx_dgrams[k] += s.wire.rx_dgrams[k];
      for (const auto& b : s.samples[k]) {
        if (samples[k].size() < thread_trace::kSamplesPerKind) samples[k].push_back(b);
      }
    }
    for (std::size_t n = 0; n < agg.size(); ++n) {
      agg[n].count += s.agg[n].count;
      agg[n].total_ns += s.agg[n].total_ns;
      agg[n].self_ns += s.agg[n].self_ns;
    }
    for (const auto v : s.timer_late_us) late.push_back(v);
    std::int64_t reference_ns = 0;  // the host reference's runs on this loop
    for (const auto& r : dep.references()[l]) reference_ns += r.cpu_ns;
    busy += static_cast<double>(s.thread_cpu_ns - before[l].thread_cpu_ns - reference_ns) /
            static_cast<double>(w1_actual - w0);
  }
  std::uint64_t tx_total = 0;
  std::uint64_t rx_total = 0;
  for (std::size_t k = 0; k < kWireKinds; ++k) {
    tx_total += wire.tx_dgrams[k];
    rx_total += wire.rx_dgrams[k];
  }
  const std::uint64_t tx_slack = queue_drops + depth +
                                 (net_after.send_err_other - net_before.send_err_other);
  const std::uint64_t tx_gap = tx_total > io.datagrams_sent
                                   ? tx_total - io.datagrams_sent
                                   : io.datagrams_sent - tx_total;
  if (tx_gap > tx_slack || rx_total + rx_dropped != io.datagrams_received) {
    res.errors.push_back("per-kind datagram counts (" + std::to_string(tx_total) +
                         " sent, " + std::to_string(rx_total) +
                         " received) disagree with loop_stats (" +
                         std::to_string(io.datagrams_sent) + ", " +
                         std::to_string(io.datagrams_received) + ")");
  }

  const auto a = [&](span_name n) -> const thread_trace::aggregate& {
    return agg[static_cast<std::size_t>(n)];
  };
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto late_frac = [&late](double us) {
    return static_cast<double>(std::count_if(late.begin(), late.end(),
                                             [us](double v) { return v >= us; })) /
           static_cast<double>(std::max<std::size_t>(1, late.size()));
  };
  const double moved = static_cast<double>(io.datagrams_sent + io.datagrams_received);
  metric_set lm(kPerLayer);
  lm.set("runtime.loop_busy_frac", busy / static_cast<double>(kLoops));
  lm.set("runtime.syscalls_per_dgram", per(static_cast<double>(io.syscalls()), moved));
  lm.set("runtime.dgrams_per_sendmmsg", per(static_cast<double>(io.datagrams_sent),
                                            static_cast<double>(io.sendmmsg_calls)));
  lm.set("runtime.dgrams_per_recvmmsg", per(static_cast<double>(io.datagrams_received),
                                            static_cast<double>(io.recvmmsg_calls)));
  lm.set("runtime.wakeups_per_s", static_cast<double>(io.epoll_waits) / window_s);
  lm.set("runtime.tx_enqueue_us_per_node_s",
         static_cast<double>(a(span_name::tx).total_ns) * 1e-3 / node_s);
  lm.set("runtime.timer_late_1ms_frac", late_frac(1e3));
  lm.set("runtime.timer_late_10ms_frac", late_frac(1e4));
  lm.set("runtime.send_errors", static_cast<double>(send_errors));
  lm.set("runtime.queue_drops", static_cast<double>(queue_drops));
  lm.set("runtime.queue_hwm", static_cast<double>(net_after.send_queue_hwm));

  set_proto_metrics(lm, samples, wire.tx_dgrams, wire.tx_bytes);
  static constexpr std::pair<span_name, const char*> kReceive[] = {
      {span_name::rx_alive, "alive"},
      {span_name::rx_hello, "hello"},
      {span_name::rx_hello_ack, "hello_ack"}};
  for (const auto& [n, name] : kReceive) {
    if (a(n).count == 0) continue;  // missing: the output check fails the run
    lm.set(std::string("service.rx_ns.") + name,
           static_cast<double>(a(n).self_ns) / static_cast<double>(a(n).count));
  }
  lm.set("service.alive_per_node_s", static_cast<double>(alive) / node_s);
  lm.set("service.restart_us", percentile(restart_us, 0.5));

  const layer_costs replayed =
      replay_stream(stream, nid(0), omega::process_id{0}, omega::group_id{1},
                    [] {
                      omega::fd::qos_spec q;
                      q.detection_time = kDetection;
                      return q;
                    }(),
                    kReplayAlives);
  if (replayed.alives == 0) {
    res.errors.push_back("the replay capture holds no ALIVE datagrams");
  }
  lm.set("fd.detect_ms_p50", percentile(fs.detect_ms, 0.5));
  lm.set("fd.on_alive_ns", replayed.fd_on_alive_ns);
  lm.set("fd.monitors_per_node",
         per(static_cast<double>(monitors), static_cast<double>(live_services)));
  lm.set("membership.hello_per_node_s", static_cast<double>(wire.tx_dgrams[3]) / node_s);
  lm.set("membership.hello_ack_per_node_s",
         static_cast<double>(wire.tx_dgrams[4]) / node_s);
  lm.set("membership.on_alive_ns", replayed.membership_on_alive_ns);
  lm.set("membership.rejoin_ms_p50", percentile(rejoin_ms, 0.5));
  lm.set("election.converge_ms_mean", mean(fs.converge_ms));
  double changes = 0;
  for (const double c : fs.changes) changes += c;
  lm.set("election.changes_per_failover",
         per(changes, static_cast<double>(fs.changes.size())));
  lm.set("election.unjustified_changes", static_cast<double>(unjustified));
  lm.set("election.evaluate_ns", replayed.election_ns);
  // The layers of the simulated deployment (hierarchy, simulator,
  // sim_network) do no work here, and no obs sink is attached.
  for (const char* idle :
       {"hierarchy.promotions_per_failover", "hierarchy.demotions_per_failover",
        "sim.node_s_per_s", "sim.events_per_s", "sim.events_per_node_s",
        "sim.deliver_frac", "net.dropped_dead_frac", "obs.stamped_frac",
        "obs.events_per_node_s"}) {
    lm.set(idle, 0.0);
  }
  lm.set("bench.trace_overhead_frac", overhead);
  res.per_layer = lm.take();
  res.notes.push_back(
      "service.timer_ns " +
      std::to_string(per(static_cast<double>(a(span_name::timer).self_ns),
                         static_cast<double>(a(span_name::timer).count))) +
      " (timer-callback self time per fire); timer lateness p50 " +
      std::to_string(percentile(late, 0.5)) + " us, p99 " +
      std::to_string(percentile(late, 0.99)) + " us; runtime.tx_enqueue_ns " +
      std::to_string(per(static_cast<double>(a(span_name::tx).total_ns),
                         static_cast<double>(tx_total))) +
      "; kill lateness p99 " + std::to_string(percentile(kill_late_ms, 0.99)) + " ms");
  res.notes.push_back("trace overhead " + std::to_string(overhead) + " from " +
                      std::to_string(kOverheadPairs) +
                      " interleaved chunk pairs; per-pair quartiles " +
                      std::to_string(percentile(overhead_ratios, 0.25)) + " .. " +
                      std::to_string(percentile(overhead_ratios, 0.75)));

  // Post-hoc failover spans, sharing each kill's id with its kill and
  // restart spans.
  thread_trace& main_trace = trace->local();
  for (std::size_t i = 0; i < failovers.size() && i < failover_ids.size(); ++i) {
    const failover& f = failovers[i];
    if (!f.completed()) continue;
    const std::uint32_t parent =
        main_trace.record(span_name::failover, failover_ids[i], f.kill_ns, f.end_ns);
    if (f.detect_ns >= 0) {
      main_trace.record(span_name::detect, failover_ids[i], f.kill_ns, f.detect_ns,
                        parent);
      main_trace.record(span_name::converge, failover_ids[i], f.detect_ns, f.end_ns,
                        parent);
    }
  }
  main_trace.record(span_name::window, main_trace.new_id(), w0, w1_actual);
  res.notes.push_back("replayed " + std::to_string(replayed.alives) +
                      " ALIVEs from a " + std::to_string(stream.size()) +
                      "-datagram capture");
  return res;
}

}  // namespace e2e
