// Micro-benchmarks for the service's hot paths (google-benchmark).
//
// These are not paper figures; they document the cost of the individual
// building blocks: FD parameter computation, link-quality updates, wire
// serialization, the simulator event queue, and a full simulated cluster
// step. Run with --benchmark_filter=... to narrow.
#include <benchmark/benchmark.h>

#include "common/random.hpp"
#include "common/serialization.hpp"
#include "fd/configurator.hpp"
#include "fd/link_quality_estimator.hpp"
#include "harness/experiment.hpp"
#include "proto/wire.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace omega;

void BM_ConfiguratorFeasible(benchmark::State& state) {
  fd::qos_spec qos = fd::qos_spec::paper_default();
  fd::link_estimate link;
  link.loss_probability = 0.1;
  link.delay_mean = msec(100);
  link.delay_stddev = msec(100);
  link.samples = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fd::configure(qos, link));
  }
}
BENCHMARK(BM_ConfiguratorFeasible);

void BM_ConfiguratorInfeasible(benchmark::State& state) {
  fd::qos_spec qos = fd::qos_spec::paper_default();
  qos.detection_time = msec(50);  // tighter than the link can support
  fd::link_estimate link;
  link.loss_probability = 0.5;
  link.delay_mean = msec(100);
  link.delay_stddev = msec(100);
  link.samples = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fd::configure(qos, link));
  }
}
BENCHMARK(BM_ConfiguratorInfeasible);

void BM_LinkEstimatorUpdate(benchmark::State& state) {
  fd::link_quality_estimator est;
  std::uint64_t seq = 0;
  time_point now = time_origin;
  for (auto _ : state) {
    now += msec(250);
    est.on_heartbeat(now - msec(3), now);
    est.on_sequence(group_id{1}, ++seq);
    benchmark::DoNotOptimize(est.estimate());
  }
}
BENCHMARK(BM_LinkEstimatorUpdate);

proto::alive_msg sample_alive() {
  proto::alive_msg msg;
  msg.from = node_id{7};
  msg.inc = 3;
  msg.send_time = time_origin + sec(5);
  msg.eta = msec(250);
  proto::group_payload payload;
  payload.group = group_id{1};
  payload.seq = 123456;
  payload.pid = process_id{7};
  payload.candidate = true;
  payload.competing = true;
  payload.accusation_time = time_origin + sec(1);
  payload.local_leader = process_id{3};
  payload.local_leader_acc = time_origin + sec(2);
  msg.groups.push_back(payload);
  return msg;
}

void BM_WireEncodeAlive(benchmark::State& state) {
  const proto::wire_message msg{sample_alive()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::encode(msg));
  }
}
BENCHMARK(BM_WireEncodeAlive);

void BM_WireDecodeAlive(benchmark::State& state) {
  const auto bytes = proto::encode(proto::wire_message{sample_alive()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::decode(bytes));
  }
}
BENCHMARK(BM_WireDecodeAlive);

void BM_EventQueueArmFire(benchmark::State& state) {
  sim::simulator sim;
  rng r{1234};
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(sim.now() + usec(1 + static_cast<std::int64_t>(
                                              r.uniform_below(1000000))),
                      [] {});
    }
    sim.run_until(sim.now() + sec(2));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueArmFire)->Arg(64)->Arg(1024);

void BM_SimulatedClusterSecond(benchmark::State& state) {
  // Cost of simulating one second of a full 12-node S3 cluster.
  harness::scenario sc;
  sc.name = "micro-cluster";
  sc.alg = election::algorithm::omega_l;
  sc.churn.enabled = false;
  sc.measured = sec(1);
  sc.warmup = sec(30);
  for (auto _ : state) {
    harness::experiment exp(sc);
    benchmark::DoNotOptimize(exp.run());
  }
}
BENCHMARK(BM_SimulatedClusterSecond)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
