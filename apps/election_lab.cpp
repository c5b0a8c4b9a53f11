// election_lab: run any leader-election scenario from the command line.
//
// The paper's whole experimental methodology in one binary — pick an
// algorithm, a fault environment and an FD QoS, and get the §5 metrics.
//
//   election_lab --alg=s3 --nodes=12 --loss=0.1 --delay-ms=100 \
//                --minutes=60 --churn-uptime=600 --tud-ms=1000
//   election_lab --alg=s2 --link-crash-uptime=60 --link-crash-downtime=3
//   election_lab --list          (show every flag and its default)
//
// Exit code 0 on success, 2 on a bad flag.
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "harness/experiment.hpp"
#include "harness/report.hpp"

using namespace omega;

namespace {

struct flag_spec {
  std::string value;
  const char* help;
};

using flag_map = std::map<std::string, flag_spec>;

flag_map default_flags() {
  return {
      {"alg", {"s2", "election algorithm: s1|s2|s3|s2-noforward|s3-nophase"}},
      {"nodes", {"12", "cluster size"}},
      {"candidates", {"0", "how many processes compete (0 = all)"}},
      {"minutes", {"10", "simulated measurement window"}},
      {"warmup-s", {"60", "warm-up before metrics start (seconds)"}},
      {"seed", {"42", "base RNG seed"}},
      {"loss", {"0", "per-message loss probability p_L"}},
      {"delay-ms", {"0.025", "mean message delay D (milliseconds)"}},
      {"churn-uptime", {"600", "mean workstation uptime (s; 0 = no churn)"}},
      {"churn-recovery", {"5", "mean workstation recovery time (s)"}},
      {"link-crash-uptime", {"0", "mean link uptime (s; 0 = links never crash)"}},
      {"link-crash-downtime", {"3", "mean link downtime (s)"}},
      {"tud-ms", {"1000", "FD detection bound T^U_D (ms)"}},
      {"tmr-days", {"100", "FD mistake recurrence bound T^L_MR (days)"}},
  };
}

void print_usage(const flag_map& flags) {
  std::cout << "usage: election_lab [--flag=value ...]\n\nflags:\n";
  for (const auto& [name, spec] : flags) {
    std::cout << "  --" << name << " (default " << spec.value << "): "
              << spec.help << "\n";
  }
}

bool parse_args(int argc, char** argv, flag_map& flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list" || arg == "--help" || arg == "-h") {
      print_usage(flags);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unrecognized argument: " << arg << "\n";
      std::exit(2);
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      std::cerr << "flags take the form --name=value: " << arg << "\n";
      std::exit(2);
    }
    const std::string name = arg.substr(2, eq - 2);
    auto it = flags.find(name);
    if (it == flags.end()) {
      std::cerr << "unknown flag --" << name << " (see --list)\n";
      std::exit(2);
    }
    it->second.value = arg.substr(eq + 1);
  }
  return true;
}

double num(const flag_map& flags, const std::string& name) {
  const std::string& v = flags.at(name).value;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (end == v.c_str()) {
    std::cerr << "flag --" << name << " expects a number, got '" << v << "'\n";
    std::exit(2);
  }
  return parsed;
}

election::algorithm parse_alg(const std::string& v) {
  if (v == "s1") return election::algorithm::omega_id;
  if (v == "s2") return election::algorithm::omega_lc;
  if (v == "s3") return election::algorithm::omega_l;
  if (v == "s2-noforward") return election::algorithm::omega_lc_noforward;
  if (v == "s3-nophase") return election::algorithm::omega_l_nophase;
  std::cerr << "unknown algorithm '" << v
            << "' (s1|s2|s3|s2-noforward|s3-nophase)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  flag_map flags = default_flags();
  if (!parse_args(argc, argv, flags)) return 0;

  harness::scenario sc;
  sc.name = "election-lab";
  sc.alg = parse_alg(flags.at("alg").value);
  sc.nodes = static_cast<std::size_t>(num(flags, "nodes"));
  sc.candidates = static_cast<std::size_t>(num(flags, "candidates"));
  sc.measured = from_seconds(num(flags, "minutes") * 60.0);
  sc.warmup = from_seconds(num(flags, "warmup-s"));
  sc.seed = static_cast<std::uint64_t>(num(flags, "seed"));
  sc.links = net::link_profile::lossy(from_seconds(num(flags, "delay-ms") / 1e3),
                                      num(flags, "loss"));

  const double churn_up = num(flags, "churn-uptime");
  if (churn_up > 0) {
    sc.churn.enabled = true;
    sc.churn.mean_uptime = from_seconds(churn_up);
    sc.churn.mean_recovery = from_seconds(num(flags, "churn-recovery"));
  } else {
    sc.churn = harness::churn_profile::none();
  }

  const double link_up = num(flags, "link-crash-uptime");
  if (link_up > 0) {
    sc.link_crashes = net::link_crash_profile::crashes(
        from_seconds(link_up), from_seconds(num(flags, "link-crash-downtime")));
  }

  sc.qos.detection_time = from_seconds(num(flags, "tud-ms") / 1e3);
  sc.qos.mistake_recurrence =
      from_seconds(num(flags, "tmr-days") * 24.0 * 3600.0);

  std::cout << "running " << election::to_string(sc.alg) << " on "
            << sc.nodes << " nodes for " << num(flags, "minutes")
            << " simulated minutes...\n";

  harness::experiment exp(sc);
  const auto r = exp.run();

  harness::table t("Results (paper §5 metrics)");
  t.headers({"metric", "value"});
  t.row({"leader availability (P_leader)", harness::fmt_percent(r.p_leader, 3)});
  t.row({"avg leader recovery time (Tr)",
         harness::fmt_ci(r.tr_mean_s, r.tr_ci95_s, 3) + " s, n=" +
             std::to_string(r.tr_samples)});
  t.row({"mistake rate (lambda_u)",
         harness::fmt_double(r.lambda_u, 2) + " /h (" +
             std::to_string(r.unjustified) + " unjustified, " +
             std::to_string(r.justified) + " justified)"});
  t.row({"leader crashes", std::to_string(r.leader_crashes)});
  t.row({"traffic / workstation",
         harness::fmt_double(r.kb_per_second, 2) + " KB/s"});
  t.row({"events executed", std::to_string(r.events_executed)});
  t.print(std::cout);
  return 0;
}
