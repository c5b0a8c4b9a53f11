// The benchmark's metrics, in the order BENCHMARK.json lists them. Every
// workload reports every one: a layer a workload does not use reports the
// zero work it did there. run.py checks each printed result against
// BENCHMARK.json, so the two lists cannot drift apart unnoticed.
#pragma once

#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.hpp"

namespace e2e {

struct metric_spec {
  const char* name;
  const char* unit;
};

inline constexpr metric_spec kEndToEnd[] = {
    {"setup_s", "s"},
    {"failover_p50_ms", "ms"},
    {"failover_p90_ms", "ms"},
    {"failover_ok_frac", "frac"},
    {"leader_availability", "frac"},
    {"cpu_ms_per_node_s", "ms/node/s"},
    {"msgs_per_node_s", "1/s"},
    {"bytes_per_node_s", "B/s"},
    {"peak_rss_mb", "MB"},
};

inline constexpr metric_spec kPerLayer[] = {
    {"runtime.loop_busy_frac", "frac"},
    {"runtime.syscalls_per_dgram", "count"},
    {"runtime.dgrams_per_sendmmsg", "count"},
    {"runtime.dgrams_per_recvmmsg", "count"},
    {"runtime.wakeups_per_s", "1/s"},
    {"runtime.tx_enqueue_us_per_node_s", "us/node/s"},
    {"runtime.timer_late_1ms_frac", "frac"},
    {"runtime.timer_late_10ms_frac", "frac"},
    {"runtime.send_errors", "count"},
    {"runtime.queue_drops", "count"},
    {"runtime.queue_hwm", "count"},
    {"proto.decode_ns.alive", "ns"},
    {"proto.decode_ns.hello", "ns"},
    {"proto.decode_ns.hello_ack", "ns"},
    {"proto.decode_ns.accuse", "ns"},
    {"proto.encode_ns.alive", "ns"},
    {"proto.encode_ns.hello", "ns"},
    {"proto.bytes.alive", "B"},
    {"proto.bytes.hello", "B"},
    {"proto.bytes.hello_ack", "B"},
    {"service.rx_ns.alive", "ns"},
    {"service.rx_ns.hello", "ns"},
    {"service.rx_ns.hello_ack", "ns"},
    {"service.alive_per_node_s", "1/s"},
    {"service.restart_us", "us"},
    {"fd.detect_ms_p50", "ms"},
    {"fd.on_alive_ns", "ns"},
    {"fd.monitors_per_node", "count"},
    {"membership.hello_per_node_s", "1/s"},
    {"membership.hello_ack_per_node_s", "1/s"},
    {"membership.on_alive_ns", "ns"},
    {"membership.rejoin_ms_p50", "ms"},
    {"election.converge_ms_mean", "ms"},
    {"election.changes_per_failover", "count"},
    {"election.unjustified_changes", "count"},
    {"election.evaluate_ns", "ns"},
    {"hierarchy.promotions_per_failover", "count"},
    {"hierarchy.demotions_per_failover", "count"},
    {"sim.node_s_per_s", "node_s/s"},
    {"sim.events_per_s", "1/s"},
    {"sim.events_per_node_s", "1/s"},
    {"sim.deliver_frac", "frac"},
    {"net.dropped_dead_frac", "frac"},
    {"obs.stamped_frac", "frac"},
    {"obs.events_per_node_s", "1/s"},
    {"bench.trace_overhead_frac", "frac"},
};

/// Values for one of the lists above, filled by name. A metric never set
/// comes out as NaN, which fails the run.
class metric_set {
 public:
  explicit metric_set(std::span<const metric_spec> specs) : specs_(specs) {
    values_.assign(specs.size(), std::numeric_limits<double>::quiet_NaN());
  }

  void set(std::string_view name, double value) {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (name == specs_[i].name) {
        values_[i] = value;
        return;
      }
    }
    throw std::logic_error("unknown metric " + std::string(name));
  }

  /// The metrics in list order.
  [[nodiscard]] std::vector<metric> take() const {
    std::vector<metric> out;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      out.push_back({specs_[i].name, values_[i], specs_[i].unit});
    }
    return out;
  }

 private:
  std::span<const metric_spec> specs_;
  std::vector<double> values_;
};

}  // namespace e2e
