// sim_hier_failover: the 120-node three-tier hierarchy on the simulator.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "common/random.hpp"
#include "decorators.hpp"
#include "harness/experiment.hpp"
#include "manifest.hpp"
#include "obs/trace.hpp"
#include "proto/wire.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

// fig12/fig15's three-tier shape: 12 regions of 10, 2 zones, one global
// group; LAN links (25 us, no loss) and fig12's QoS on every tier.
constexpr std::size_t kNodes = 120;
constexpr std::size_t kRegions = 12;
constexpr std::size_t kZones = 2;
constexpr omega::duration kWarmup = omega::sec(30);
// The simulated window is `seconds` x this many simulated seconds. One core
// of the 4-vCPU x86 VM the benchmark was sized on simulates ~17 s of this
// workload per wall second, so a run measures for roughly `seconds` of wall
// time while its protocol outputs depend on the seed alone.
constexpr double kSimSecondsPerWallSecond = 18.0;
// The global leader's node is crashed every 3 s (phase from the seed) and
// recovered 1.2-1.8 s later: the 540 s window of a 30 s run holds ~179
// kills, and a p90 needs >= 100 of them. The recovery comes after the
// failover (~1 s) and >= 1.2 s before the next kill: recoveries up to 2.5 s
// after the kill more often left the global group without an agreed leader
// when the next kill fell due.
constexpr omega::duration kKillInterval = omega::sec(3);
constexpr double kRecoverMinS = 1.2;
constexpr double kRecoverMaxS = 1.8;
constexpr std::int64_t kDetectionNs = 1'000'000'000;
constexpr omega::duration kFinalGrace = omega::sec(10);
// The traced run's replays use one node's inbound stream over this much
// simulated time after the window.
constexpr omega::duration kStreamCapture = omega::sec(30);
constexpr std::size_t kReplayAlives = 20000;
// cpu_ms_per_node_s is the median over chunks of this many kill periods.
constexpr std::size_t kPeriodsPerChunk = 8;
// Host reference runs before and after every set-up, and at every CPU chunk
// edge of the window.
constexpr int kReferenceRuns = 5;

omega::fd::qos_spec bench_qos() {
  omega::fd::qos_spec qos;
  qos.detection_time = omega::sec(1);
  qos.mistake_recurrence =
      std::chrono::duration_cast<omega::duration>(std::chrono::hours(2));
  qos.query_accuracy = 0.9999;
  return qos;
}

omega::harness::scenario make_scenario(std::uint64_t seed, bool profile) {
  omega::harness::scenario sc;
  sc.name = "e2ebench-sim-hier-failover";
  sc.nodes = kNodes;
  sc.alg = omega::election::algorithm::omega_lc;
  sc.links = omega::net::link_profile::lan();
  sc.qos = bench_qos();
  sc.churn = omega::harness::churn_profile::none();
  sc.hierarchy = omega::harness::hierarchy_profile::three_tier(kRegions, kZones);
  sc.hierarchy.scoped_hello = true;
  sc.hierarchy.global_qos = bench_qos();
  sc.trace = true;
  sc.causal = true;
  sc.profile_sim = profile;
  sc.warmup = kWarmup;
  sc.seed = seed * 0x9e3779b97f4a7c15ULL + 0x73696dULL;
  return sc;
}

std::int64_t to_ns(omega::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

struct fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Host time the profiler attributed to datagram delivery, per kind label.
struct profile_totals {
  std::vector<std::pair<std::string, std::pair<std::uint64_t, double>>> kinds;
  [[nodiscard]] double seconds() const {
    double s = 0;
    for (const auto& k : kinds) s += k.second.second;
    return s;
  }
  [[nodiscard]] std::pair<std::uint64_t, double> of(const std::string& kind) const {
    for (const auto& k : kinds) {
      if (k.first == kind) return k.second;
    }
    return {0, 0.0};
  }
};

profile_totals read_profile(omega::harness::experiment& exp) {
  profile_totals out;
  const auto& fams = exp.sim_registry().families();
  const auto it = fams.find("omega_sim_handler_seconds");
  if (it == fams.end()) return out;
  for (const auto& s : it->second.entries) {
    std::string kind;
    for (const auto& [k, v] : s->labels) {
      if (k == "kind") kind = v;
    }
    out.kinds.push_back({kind, {s->h->count(), s->h->sum()}});
  }
  return out;
}

/// One experiment driven through the measured window. The untraced run has
/// one pass; the traced run adds a traced pass of the same seed, run in
/// lockstep with it kill period by kill period, so that the two see the
/// same host and their outputs can be compared.
class sim_pass {
 public:
  sim_pass(const omega::harness::scenario& sc, bool traced)
      : exp_(std::make_unique<omega::harness::experiment>(sc)), traced_(traced) {}
  explicit sim_pass(std::unique_ptr<omega::harness::experiment> exp)
      : exp_(std::move(exp)) {}

  omega::harness::experiment& exp() { return *exp_; }

  /// Starts the window at `w0`: the per-kind send tap and the counters.
  void open(omega::time_point w0) {
    exp_->network().set_send_tap(
        [this](omega::node_id, omega::node_id to, std::span<const std::byte> bytes) {
          if (capture_ != nullptr && to == capture_node_) {
            capture_->push_back(
                captured_datagram{exp_->simulator().now(), {bytes.begin(), bytes.end()}});
          }
          const std::size_t k = wire_kind(bytes);
          ++dgrams[k];
          bytes_by_kind[k] += bytes.size();
          if (!bytes.empty() &&
              std::to_integer<std::uint8_t>(bytes[0]) ==
                  omega::proto::protocol_version_stamped) {
            ++stamped;
          }
          if (traced_ && samples[k].size() < thread_trace::kSamplesPerKind) {
            samples[k].emplace_back(bytes.begin(), bytes.end());
          }
        });
    exp_->network().reset_traffic();
    exp_->group().begin(w0);
    events0 = exp_->simulator().events_executed();
    alive0 = exp_->total_alive_sent();
    recorded0 = recorded();
    prof0 = read_profile(*exp_);
  }

  /// One kill period: runs to `t_kill`, crashes the node hosting the agreed
  /// global leader (if any) and steps the simulator until the survivors
  /// agree or the next kill falls due. The victim recovers `recover_after`
  /// later. Returns the simulation wall time the period took.
  std::int64_t period(omega::time_point t_kill, omega::duration recover_after,
                      std::uint64_t kill_number, tracer* trace) {
    auto& sim = exp_->simulator();
    const std::int64_t start = steady_ns();
    std::int64_t took = 0;
    sim.run_until(t_kill);
    const auto leader = exp_->group().agreed_leader();
    if (!leader) {  // due while leaderless: a failed kill
      took = steady_ns() - start;
      period_wall_ns.push_back(took);
      return took;
    }
    const omega::node_id victim{leader->value()};
    exp_->crash_node(victim);
    failover f;
    f.kill_ns = to_ns(t_kill);
    f.victim = leader->value();
    // The recovery and a no-op stop mark at the next kill are simulator
    // events, so stepping event by event below never runs past either. The
    // agreed global leader is read after every event: a failover ends at
    // the simulated instant of the event that completed the agreement, and
    // one still open when the next kill falls due stays incomplete.
    sim.schedule_at(t_kill + recover_after, [this, victim] {
      const std::int64_t t0 = steady_ns();
      exp_->recover_node(victim);
      restart_us.push_back(static_cast<double>(steady_ns() - t0) * 1e-3);
    });
    const omega::time_point stop = t_kill + kKillInterval;
    sim.schedule_at(stop, [] {});
    while (sim.now() < stop && sim.step()) {
      const auto agreed = exp_->group().agreed_leader();
      if (!agreed || (*agreed == *leader && !exp_->node_up(victim))) continue;
      f.end_ns = to_ns(sim.now());
      f.successor = agreed->value();
      break;
    }
    took = steady_ns() - start;

    if (f.completed() && f.successor == f.victim) {
      errors.push_back("failover successor is the victim " + std::to_string(f.victim));
    } else if (f.completed() &&
               !exp_->node_up(omega::node_id{static_cast<std::uint32_t>(f.successor)})) {
      errors.push_back("failover successor " + std::to_string(f.successor) +
                       " is a dead process");
    }
    failovers.push_back(f);
    fp.add(static_cast<std::uint64_t>(f.kill_ns));
    fp.add(static_cast<std::uint64_t>(f.victim));
    fp.add(static_cast<std::uint64_t>(f.end_ns));
    fp.add(static_cast<std::uint64_t>(f.successor));
    if (traced_ && f.completed()) {
      analyse(f, victim, t_kill, kill_number, trace);
      // Rejoin: from the recovery until the global group agrees again, now
      // with the recovered node holding the agreed leader too. Stepping
      // event by event is part of the traced pass's timed work.
      const std::int64_t r0 = steady_ns();
      while (sim.now() < stop && !exp_->node_up(victim) && sim.step()) {
      }
      while (exp_->node_up(victim) && sim.now() < stop &&
             !exp_->group().agreed_leader() && sim.step()) {
      }
      if (exp_->node_up(victim) && exp_->group().agreed_leader()) {
        rejoin_ms.push_back(omega::to_seconds(sim.now() - (t_kill + recover_after)) * 1e3);
      }
      took += steady_ns() - r0;
    }
    period_wall_ns.push_back(took);
    return took;
  }

  /// Per-failover trace analysis of the traced pass, outside the timed
  /// simulation.
  void analyse(const failover& f, omega::node_id victim, omega::time_point t_kill,
               std::uint64_t kill_number, tracer* trace) {
    const omega::group_id top = exp_->topo()->top_group();
    const omega::time_point end = t_kill + omega::duration{(f.end_ns - f.kill_ns) / 1000};
    const auto budget = exp_->attribute_outage_dag(
        victim, t_kill, end, omega::process_id{static_cast<std::uint32_t>(f.successor)});
    dag_detect_ms.push_back(budget.detection_s * 1e3);
    std::optional<omega::time_point> first_change;
    std::uint64_t n_changes = 0;
    for (std::size_t n = 0; n < kNodes; ++n) {
      if (n == victim.value()) continue;
      for (const auto& ev :
           exp_->node_trace(omega::node_id{static_cast<std::uint32_t>(n)})->events()) {
        if (ev.at <= t_kill || ev.at > end) continue;
        if (ev.kind == omega::obs::event_kind::leader_change && ev.group == top) {
          ++n_changes;
          if (!first_change || ev.at < *first_change) first_change = ev.at;
        } else if (ev.kind == omega::obs::event_kind::promotion) {
          ++promotions;
        } else if (ev.kind == omega::obs::event_kind::demotion) {
          ++demotions;
        }
      }
    }
    changes.push_back(static_cast<double>(n_changes));
    if (first_change) converge_ms.push_back(omega::to_seconds(end - *first_change) * 1e3);
    thread_trace& spans = trace->local();
    const std::uint64_t id = (std::uint64_t{1} << 63) | kill_number;
    const std::uint32_t parent = spans.record(span_name::failover, id, f.kill_ns, f.end_ns);
    spans.record(span_name::detect, id, f.kill_ns,
                 f.kill_ns + static_cast<std::int64_t>(budget.detection_s * 1e9), parent);
  }

  /// Runs to the window's end `w1` and closes it; returns the wall time.
  std::int64_t close(omega::time_point w1) {
    const std::int64_t start = steady_ns();
    exp_->simulator().run_until(w1);
    const std::int64_t took = steady_ns() - start;
    exp_->group().finish(w1);
    return took;
  }

  /// Appends every datagram sent to `node` to `sink` until called with
  /// nullptr.
  void capture_stream(omega::node_id node, std::vector<captured_datagram>* sink) {
    capture_node_ = node;
    capture_ = sink;
  }

  [[nodiscard]] std::uint64_t recorded() {
    std::uint64_t r = 0;
    for (std::size_t n = 0; n < kNodes; ++n) {
      r += exp_->node_trace(omega::node_id{static_cast<std::uint32_t>(n)})->recorded();
    }
    return r;
  }

  // Send tap, per wire kind.
  std::array<std::uint64_t, kWireKinds> dgrams{};
  std::array<std::uint64_t, kWireKinds> bytes_by_kind{};
  std::uint64_t stamped = 0;
  std::array<std::vector<std::vector<std::byte>>, kWireKinds> samples;
  // Counters at the window's start.
  std::uint64_t events0 = 0;
  std::uint64_t alive0 = 0;
  std::uint64_t recorded0 = 0;
  profile_totals prof0;
  // Outcome.
  std::vector<std::int64_t> period_wall_ns;
  std::vector<failover> failovers;
  std::vector<double> dag_detect_ms;
  std::vector<double> converge_ms;
  std::vector<double> changes;
  std::vector<double> restart_us;
  std::vector<double> rejoin_ms;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  fnv1a fp;
  std::vector<std::string> errors;

 private:
  std::unique_ptr<omega::harness::experiment> exp_;
  bool traced_ = false;
  omega::node_id capture_node_{};
  std::vector<captured_datagram>* capture_ = nullptr;
};

}  // namespace

pass_result run_sim(const run_options& opts, tracer* trace) {
  pass_result res;
  const omega::harness::scenario sc = make_scenario(opts.seed, false);

  // setup_s is the median set-up scaled by the host's speed around the
  // set-ups, from the wall time of reference runs made between them on the
  // same thread. cpu_ms_per_node_s is scaled by the CPU time of every
  // reference run, those between the set-ups and those in the window.
  host_reference reference(reference_kind::simulation);
  std::vector<double> ref_wall_ns;
  std::vector<double> ref_cpu_ns;
  const auto run_references = [&] {
    for (int i = 0; i < kReferenceRuns; ++i) {
      const reference_sample r = reference.run();
      ref_wall_ns.push_back(static_cast<double>(r.wall_ns));
      ref_cpu_ns.push_back(static_cast<double>(r.cpu_ns));
    }
  };
  std::unique_ptr<omega::harness::experiment> built;
  std::vector<double> setups;
  run_references();
  for (int k = 0; k < std::max(1, opts.setup_repeats); ++k) {
    built.reset();
    const std::int64_t t0 = steady_ns();
    built = std::make_unique<omega::harness::experiment>(sc);
    built->simulator().run_until(omega::time_origin + kWarmup);
    setups.push_back(static_cast<double>(steady_ns() - t0) * 1e-9);
    run_references();
  }
  const double setup_s =
      median(setups) * kNominalSimulationReferenceWallNs / median(ref_wall_ns);
  res.notes.push_back("host reference " + std::to_string(median(ref_wall_ns) * 1e-6) +
                      " ms wall (median of " + std::to_string(ref_wall_ns.size()) +
                      " runs, nominal " + std::to_string(kNominalSimulationReferenceWallNs * 1e-6) +
                      "); unscaled setup_s " + std::to_string(median(setups)));

  sim_pass plain(std::move(built));
  std::unique_ptr<sim_pass> traced;
  if (trace != nullptr) {
    traced = std::make_unique<sim_pass>(make_scenario(opts.seed, true), true);
    traced->exp().simulator().run_until(omega::time_origin + kWarmup);
  }

  const omega::duration window = omega::from_seconds(
      static_cast<double>(opts.seconds) * kSimSecondsPerWallSecond);
  const omega::time_point w0 = plain.exp().simulator().now();
  const omega::time_point w1 = w0 + window;
  plain.open(w0);
  if (traced) traced->open(w0);

  omega::rng schedule(opts.seed * 0x9e3779b97f4a7c15ULL + 0x6b696c6cULL);
  const omega::duration offset = omega::from_seconds(
      schedule.uniform(0.0, omega::to_seconds(kKillInterval)));
  std::size_t scheduled_kills = 0;
  std::int64_t sim_wall_ns = 0;  // the untraced pass's simulation time
  // cpu_ms_per_node_s of an untraced run: process CPU per node and
  // simulated second over chunks of kPeriodsPerChunk kill periods, each
  // opened after reference runs, so that they stay out of it.
  std::vector<double> chunk_cpu;
  double chunk_cpu0 = 0;
  std::optional<omega::time_point> chunk_t0;
  const auto chunk_edge = [&] {
    if (trace != nullptr) return;
    const auto& sim = plain.exp().simulator();
    if (chunk_t0) {
      chunk_cpu.push_back((process_cpu_s() - chunk_cpu0) * 1e3 /
                          (static_cast<double>(kNodes) *
                           omega::to_seconds(sim.now() - *chunk_t0)));
    }
    run_references();
    chunk_cpu0 = process_cpu_s();
    chunk_t0 = sim.now();
  };
  chunk_edge();
  for (omega::time_point t_kill = w0 + offset; t_kill + kKillInterval <= w1;
       t_kill += kKillInterval) {
    const omega::duration recover_after = omega::from_seconds(
        schedule.uniform(kRecoverMinS, kRecoverMaxS));
    if (scheduled_kills > 0 && scheduled_kills % kPeriodsPerChunk == 0) chunk_edge();
    ++scheduled_kills;
    // The traced pass goes first in every other period.
    if (traced && scheduled_kills % 2 == 0) {
      traced->period(t_kill, recover_after, scheduled_kills, trace);
    }
    sim_wall_ns += plain.period(t_kill, recover_after, scheduled_kills, nullptr);
    if (traced && scheduled_kills % 2 == 1) {
      traced->period(t_kill, recover_after, scheduled_kills, trace);
    }
  }
  sim_wall_ns += plain.close(w1);
  if (traced) traced->close(w1);

  // ---- measured window closed ----------------------------------------------
  omega::harness::experiment& exp = plain.exp();
  auto& sim = exp.simulator();
  res.errors = plain.errors;
  std::uint64_t dgrams = 0;
  std::uint64_t bytes = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    const auto& t = exp.network().traffic(omega::node_id{static_cast<std::uint32_t>(n)});
    dgrams += t.datagrams_sent;
    bytes += t.bytes_sent;
  }
  const std::uint64_t events = sim.events_executed() - plain.events0;
  std::uint64_t tap_dgrams = 0;
  std::uint64_t tap_bytes = 0;
  for (std::size_t k = 0; k < kWireKinds; ++k) {
    tap_dgrams += plain.dgrams[k];
    tap_bytes += plain.bytes_by_kind[k];
  }
  if (tap_dgrams != dgrams ||
      tap_bytes + omega::net::wire_overhead_bytes * tap_dgrams != bytes) {
    res.errors.push_back("per-kind datagram counts (" + std::to_string(tap_dgrams) +
                         ") disagree with sim_network::traffic totals (" +
                         std::to_string(dgrams) + ")");
  }
  bool agreed_at_end = exp.group().agreed_leader().has_value();
  for (omega::time_point t = w1; !agreed_at_end && t < w1 + kFinalGrace;) {
    t += omega::msec(10);
    sim.run_until(t);
    agreed_at_end = exp.group().agreed_leader().has_value();
  }
  if (!agreed_at_end) {
    res.errors.push_back("the global group ends the run without an agreed live leader");
  }

  plain.fp.add(scheduled_kills);
  plain.fp.add(events);
  plain.fp.add(dgrams);
  plain.fp.add(bytes);
  const failover_summary fs =
      summarise(plain.failovers, scheduled_kills, 3 * kDetectionNs);
  if (ranked_beyond(fs.failover_ms.size(), 0.9) < 10) {
    res.errors.push_back("only " + std::to_string(fs.failover_ms.size()) +
                         " failover samples: too few for a p90 with 10 beyond it");
  }
  const double window_s = omega::to_seconds(window);
  const double node_s = window_s * static_cast<double>(kNodes);
  const double wall_s = static_cast<double>(sim_wall_ns) * 1e-9;
  // Traced runs report no end-to-end metrics and take no CPU chunks.
  const double cpu_ms_per_node_s =
      chunk_cpu.empty() ? 0.0
                        : median(chunk_cpu) * kNominalSimulationReferenceCpuNs /
                              median(ref_cpu_ns);
  metric_set e2e(kEndToEnd);
  e2e.set("setup_s", setup_s);
  e2e.set("failover_p50_ms", percentile(fs.failover_ms, 0.5));
  e2e.set("failover_p90_ms", percentile(fs.failover_ms, 0.9));
  e2e.set("failover_ok_frac",
          scheduled_kills == 0
              ? 0.0
              : static_cast<double>(fs.ok) / static_cast<double>(scheduled_kills));
  e2e.set("leader_availability", exp.group().leader_availability());
  e2e.set("cpu_ms_per_node_s", cpu_ms_per_node_s);
  e2e.set("msgs_per_node_s", static_cast<double>(dgrams) / node_s);
  e2e.set("bytes_per_node_s",
          static_cast<double>(bytes - omega::net::wire_overhead_bytes * dgrams) / node_s);
  e2e.set("peak_rss_mb", peak_rss_mb());
  res.end_to_end = e2e.take();
  res.attempted = scheduled_kills;
  res.failed = scheduled_kills - fs.ok;
  if (!chunk_cpu.empty()) {
    res.notes.push_back("host reference " + std::to_string(median(ref_cpu_ns) * 1e-6) +
                        " ms CPU (median of " + std::to_string(ref_cpu_ns.size()) +
                        " runs, nominal " +
                        std::to_string(kNominalSimulationReferenceCpuNs * 1e-6) +
                        "); unscaled cpu_ms_per_node_s " +
                        std::to_string(median(chunk_cpu)) + " over " +
                        std::to_string(chunk_cpu.size()) + " chunks");
  }

  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(plain.fp.h));
  res.notes.push_back("fingerprint " + std::string(hex) + " (seed " +
                      std::to_string(opts.seed) + ": " + std::to_string(events) +
                      " events, " + std::to_string(dgrams) + " datagrams, " +
                      std::to_string(fs.completed) + " failovers of " +
                      std::to_string(scheduled_kills) + " kills)");
  res.notes.push_back("simulated window " + std::to_string(window_s) + " s in " +
                      std::to_string(wall_s) + " s wall, " +
                      std::to_string(setups.size()) + " set-ups");

  if (!traced) return res;

  // ---- per-layer metrics of the traced pass --------------------------------
  // Its protocol outputs must equal the untraced pass's.
  sim_pass& tp = *traced;
  for (const auto& e : tp.errors) res.errors.push_back("traced pass: " + e);
  omega::harness::experiment& texp = tp.exp();
  tp.fp.add(scheduled_kills);
  tp.fp.add(texp.simulator().events_executed() - tp.events0);
  std::uint64_t tdgrams = 0;
  std::uint64_t tbytes = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    const auto& t = texp.network().traffic(omega::node_id{static_cast<std::uint32_t>(n)});
    tdgrams += t.datagrams_sent;
    tbytes += t.bytes_sent;
  }
  tp.fp.add(tdgrams);
  tp.fp.add(tbytes);
  if (tp.fp.h != plain.fp.h) {
    res.errors.push_back("tracing changed the simulated protocol outputs");
  }
  // Tracing overhead: per kill period, the traced pass's wall time over the
  // untraced pass's for the same simulated work.
  std::vector<double> overhead_ratios;
  std::int64_t traced_wall_ns = 0;
  for (std::size_t p = 0; p < tp.period_wall_ns.size(); ++p) {
    traced_wall_ns += tp.period_wall_ns[p];
    overhead_ratios.push_back(static_cast<double>(tp.period_wall_ns[p]) /
                                  static_cast<double>(plain.period_wall_ns[p]) -
                              1.0);
  }
  const double overhead = median(overhead_ratios);
  res.notes.push_back("trace overhead " + std::to_string(overhead) + " from " +
                      std::to_string(overhead_ratios.size()) +
                      " interleaved kill periods; quartiles " +
                      std::to_string(percentile(overhead_ratios, 0.25)) + " .. " +
                      std::to_string(percentile(overhead_ratios, 0.75)));

  const std::uint64_t alives = texp.total_alive_sent() - tp.alive0;
  const std::uint64_t recorded = tp.recorded() - tp.recorded0;
  const profile_totals prof1 = read_profile(texp);
  std::uint64_t monitors = 0;
  std::uint64_t live_nodes = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    if (auto* svc = texp.node_service(omega::node_id{static_cast<std::uint32_t>(n)})) {
      monitors += svc->failure_detector().monitor_count();
      ++live_nodes;
    }
  }
  const std::uint64_t dropped_dead = texp.network().dropped_dead_node();
  const double traced_wall_s = static_cast<double>(traced_wall_ns) * 1e-9;

  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  metric_set lm(kPerLayer);
  // No event loop or socket runs here, and simulated timers fire when due:
  // the runtime layer does no work on this workload.
  for (const char* idle :
       {"runtime.loop_busy_frac", "runtime.syscalls_per_dgram",
        "runtime.dgrams_per_sendmmsg", "runtime.dgrams_per_recvmmsg",
        "runtime.wakeups_per_s", "runtime.tx_enqueue_us_per_node_s",
        "runtime.timer_late_1ms_frac", "runtime.timer_late_10ms_frac",
        "runtime.send_errors", "runtime.queue_drops", "runtime.queue_hwm"}) {
    lm.set(idle, 0.0);
  }
  set_proto_metrics(lm, tp.samples, tp.dgrams, tp.bytes_by_kind);
  for (const auto& [k, name] : kReportedKinds) {
    // ACCUSEs go to the leader they accuse: after a kill it is dead, so the
    // live workload receives none and their receive cost is no metric.
    if (k == 2) continue;
    const auto before = tp.prof0.of(std::string(omega::proto::to_string(
        static_cast<omega::proto::msg_kind>(k))));
    const auto after = prof1.of(std::string(omega::proto::to_string(
        static_cast<omega::proto::msg_kind>(k))));
    if (after.first > before.first) {  // missing: the output check fails the run
      lm.set(std::string("service.rx_ns.") + name,
             (after.second - before.second) * 1e9 /
                 static_cast<double>(after.first - before.first));
    }
  }
  lm.set("service.alive_per_node_s", static_cast<double>(alives) / node_s);
  lm.set("service.restart_us", percentile(tp.restart_us, 0.5));
  lm.set("fd.detect_ms_p50", percentile(tp.dag_detect_ms, 0.5));
  lm.set("fd.monitors_per_node",
         per(static_cast<double>(monitors), static_cast<double>(live_nodes)));
  lm.set("membership.hello_per_node_s", static_cast<double>(tp.dgrams[3]) / node_s);
  lm.set("membership.hello_ack_per_node_s", static_cast<double>(tp.dgrams[4]) / node_s);
  lm.set("membership.rejoin_ms_p50", percentile(tp.rejoin_ms, 0.5));
  lm.set("election.converge_ms_mean", mean(tp.converge_ms));
  double change_sum = 0;
  for (const double c : tp.changes) change_sum += c;
  const double per_failover = static_cast<double>(tp.changes.size());
  lm.set("election.changes_per_failover", per(change_sum, per_failover));
  lm.set("election.unjustified_changes",
         static_cast<double>(texp.group().unjustified_demotions()));
  lm.set("hierarchy.promotions_per_failover",
         per(static_cast<double>(tp.promotions), per_failover));
  lm.set("hierarchy.demotions_per_failover",
         per(static_cast<double>(tp.demotions), per_failover));
  lm.set("sim.node_s_per_s", node_s / wall_s);
  lm.set("sim.events_per_s", static_cast<double>(events) / wall_s);
  lm.set("sim.events_per_node_s", static_cast<double>(events) / node_s);
  lm.set("sim.deliver_frac", (prof1.seconds() - tp.prof0.seconds()) / traced_wall_s);
  lm.set("net.dropped_dead_frac",
         per(static_cast<double>(dropped_dead), static_cast<double>(tdgrams)));
  lm.set("obs.stamped_frac",
         per(static_cast<double>(tp.stamped), static_cast<double>(tdgrams)));
  lm.set("obs.events_per_node_s", static_cast<double>(recorded) / node_s);
  lm.set("bench.trace_overhead_frac", overhead);

  // Replayed fd, membership and election costs: the inbound stream of one
  // live node, replayed as a member of its region group, captured after the
  // window.
  omega::node_id self{0};
  while (!texp.node_up(self) && self.value() + 1 < kNodes) {
    self = omega::node_id{self.value() + 1};
  }
  std::vector<captured_datagram> stream;
  tp.capture_stream(self, &stream);
  texp.simulator().run_until(w1 + kStreamCapture);
  tp.capture_stream(self, nullptr);
  const layer_costs replayed =
      replay_stream(stream, self, omega::process_id{self.value()},
                    texp.topo()->group_at(self, 0), bench_qos(), kReplayAlives);
  if (replayed.alives == 0) {
    res.errors.push_back("the replay capture holds no ALIVE datagrams");
  }
  lm.set("fd.on_alive_ns", replayed.fd_on_alive_ns);
  lm.set("membership.on_alive_ns", replayed.membership_on_alive_ns);
  lm.set("election.evaluate_ns", replayed.election_ns);
  res.per_layer = lm.take();
  res.notes.push_back("replayed " + std::to_string(replayed.alives) +
                      " ALIVEs from a " + std::to_string(stream.size()) +
                      "-datagram capture at node " + std::to_string(self.value()));
  trace->local().record(span_name::window, trace->local().new_id(), to_ns(w0),
                        to_ns(w1));
  return res;
}

}  // namespace e2e
