// End-to-end benchmark of the leader-election service: runs one workload
// for one seed and prints every metric by name with its unit, then one JSON
// line. Broken output checks print no metrics and exit non-zero.
//
//   e2ebench --workload <live_failover|sim_hier_failover> --seed <n>
//            --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// prints the per-layer metrics of a traced run, including the tracing
// overhead, measured inside that run: on live from chunks with recording
// off and on, interleaved; on sim from an untraced pass of the same seed
// run in lockstep with the traced one.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

struct args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string spans_dir = ".";
};

bool parse(int argc, char** argv, args& out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      out.workload = value;
    } else if (key == "--seed") {
      out.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      out.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      out.trace = std::atoi(value.c_str());
    } else if (key == "--spans-dir") {
      out.spans_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out.workload.empty() && out.seconds > 0 &&
         (out.trace == 0 || out.trace == 1);
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

e2e::pass_result run(const args& a, const e2e::run_options& opts,
                     e2e::tracer* trace) {
  if (a.workload == "live_failover") return e2e::run_live(opts, trace);
  return e2e::run_sim(opts, trace);
}

int fail(const std::vector<std::string>& errors) {
  for (const auto& e : errors) std::cerr << "output check failed: " << e << "\n";
  return 1;
}

int bench_main(const args& a) {
  const bool sim = a.workload == "sim_hier_failover";
  e2e::run_options opts;
  opts.seed = a.seed;
  opts.seconds = a.seconds;
  std::cout << "e2ebench workload=" << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << a.trace << std::endl;

  e2e::pass_result out;
  std::vector<e2e::metric> metrics;
  if (a.trace == 0) {
    // Several set-ups per run: setup_s is their median.
    opts.setup_repeats = sim ? 15 : 5;
    out = run(a, opts, nullptr);
    if (!out.errors.empty()) return fail(out.errors);
    metrics = out.end_to_end;
  } else {
    opts.setup_repeats = 1;
    e2e::tracer trace(6, std::size_t{1} << 17);
    out = run(a, opts, &trace);
    if (!out.errors.empty()) return fail(out.errors);
    metrics = out.per_layer;
    const std::string path = a.spans_dir + "/spans-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".csv";
    if (!trace.write(path)) return fail({"cannot write spans to " + path});
    out.notes.push_back("wrote " + std::to_string(trace.spans_recorded()) +
                        " spans (" + std::to_string(trace.spans_dropped()) +
                        " over capacity) to " + path);
  }

  for (const auto& n : out.notes) std::cout << n << "\n";
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) return fail({"metric " + m.name + " has no value"});
  }
  for (const auto& m : metrics) {
    std::cout << "metric " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
    json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  std::cout << json << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  args a;
  if (!parse(argc, argv, a) ||
      (a.workload != "live_failover" && a.workload != "sim_hier_failover")) {
    std::cerr << "usage: e2ebench --workload <live_failover|sim_hier_failover> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]\n";
    return 2;
  }
  try {
    return bench_main(a);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
