// Chaos demo: the paper's §6.1 fault environment, narrated.
//
// Runs the full experiment harness on a 12-node cluster with the paper's
// default churn (each workstation crashes every ~10 minutes and recovers
// after ~5 s), the worst lossy links of the evaluation (100 ms mean delay,
// 1-in-10 loss), and prints a live narration of ground-truth events next to
// what the service reports. Ends with the same QoS metrics the paper's
// figures use.
//
// Usage: chaos_demo [s1|s2|s3] [minutes]   (default: s2 10)
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/experiment.hpp"
#include "harness/report.hpp"

using namespace omega;

int main(int argc, char** argv) {
  election::algorithm alg = election::algorithm::omega_lc;
  if (argc > 1) {
    const std::string pick = argv[1];
    if (pick == "s1") alg = election::algorithm::omega_id;
    else if (pick == "s2") alg = election::algorithm::omega_lc;
    else if (pick == "s3") alg = election::algorithm::omega_l;
    else {
      std::cerr << "usage: chaos_demo [s1|s2|s3] [minutes]\n";
      return 2;
    }
  }
  const int minutes = argc > 2 ? std::atoi(argv[2]) : 10;

  harness::scenario sc;
  sc.name = "chaos-demo";
  sc.alg = alg;
  sc.links = net::link_profile::lossy(msec(100), 0.1);
  sc.churn = harness::churn_profile::paper_default();
  sc.measured = sec(60L * minutes);
  sc.seed = 2026;

  std::cout << "-- running " << election::to_string(alg) << " for " << minutes
            << " simulated minutes in the (100ms, 0.1) network with "
               "10-minute crash cycles\n";

  harness::experiment exp(sc);

  // Narrate ground-truth agreement changes as the simulation runs.
  std::optional<process_id> last;
  bool had_any = false;
  exp.group().set_agreement_observer(
      [&](time_point t, std::optional<process_id> leader) {
        const double ts = to_seconds(t - time_origin);
        if (leader) {
          std::cout << "  [t=" << ts << "s] group agrees on leader "
                    << leader->value();
          if (had_any && last && *last != *leader) std::cout << "  (changed)";
          std::cout << "\n";
          last = leader;
          had_any = true;
        } else {
          std::cout << "  [t=" << ts << "s] group is leaderless\n";
        }
      });

  const auto r = exp.run();

  harness::table t("Chaos run summary (paper §5 metrics)");
  t.headers({"metric", "value"});
  t.row({"leader availability (P_leader)", harness::fmt_percent(r.p_leader, 2)});
  t.row({"avg leader recovery time (Tr)",
         harness::fmt_ci(r.tr_mean_s, r.tr_ci95_s, 2) + " s over " +
             std::to_string(r.tr_samples) + " leader crashes"});
  t.row({"unjustified demotions (lambda_u)",
         harness::fmt_double(r.lambda_u, 2) + " /h (" +
             std::to_string(r.unjustified) + " total)"});
  t.row({"justified leader changes", std::to_string(r.justified)});
  t.row({"traffic per workstation",
         harness::fmt_double(r.kb_per_second, 2) + " KB/s"});
  t.row({"simulated hours", harness::fmt_double(r.simulated_hours, 2)});
  t.print(std::cout);
  return 0;
}
