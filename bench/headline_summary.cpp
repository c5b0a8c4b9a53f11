// Headline numbers quoted in the paper's introduction (§1) and summary.
//
// One bench that reproduces the paper's elevator pitch in a single table:
//   * In the "difficult" environment (12 nodes, 10-minute crash cycles,
//     1-in-10 message loss, 100 ms mean delay, FD QoS (1 s, 100 days)):
//     both S2 (Omega_lc) and S3 (Omega_l) never demote a leader by mistake
//     and keep a commonly-agreed leader ~99.8% of the time, at
//     62.38 KB/s (S2) vs 6.48 KB/s (S3) of traffic per workstation (the
//     paper's CPU figures have no simulated counterpart; DESIGN.md §5).
//   * Adding 60 s-mean link crashes: S2 stays at 98.78% availability,
//     S3 falls to 77.42%.
#include <iostream>

#include "bench_support.hpp"

using namespace omega;

namespace {

harness::experiment_result run(election::algorithm alg, bool link_crashes) {
  harness::scenario sc;
  sc.name = std::string("headline-") + std::string(election::to_string(alg)) +
            (link_crashes ? "-crashes" : "-lossy");
  sc.alg = alg;
  if (link_crashes) {
    sc.links = net::link_profile::lan();
    sc.link_crashes = net::link_crash_profile::crashes(sec(60), sec(3));
  } else {
    sc.links = net::link_profile::lossy(msec(100), 0.1);
  }
  sc = bench::with_defaults(sc);
  return bench::run_cell(sc);
}

}  // namespace

int main() {
  const auto s2 = run(election::algorithm::omega_lc, false);
  const auto s3 = run(election::algorithm::omega_l, false);
  const auto s2c = run(election::algorithm::omega_lc, true);
  const auto s3c = run(election::algorithm::omega_l, true);

  harness::table t("Paper §1 headline scenario: (100ms, 0.1) links, 10-min churn");
  t.headers({"metric", "paper S2", "measured S2", "paper S3", "measured S3"});
  t.row({"unjustified demotions", "0", std::to_string(s2.unjustified), "0",
         std::to_string(s3.unjustified)});
  t.row({"leader availability", "99.82%", harness::fmt_percent(s2.p_leader, 2),
         "99.84%", harness::fmt_percent(s3.p_leader, 2)});
  t.row({"traffic / workstation", "62.38 KB/s",
         harness::fmt_double(s2.kb_per_second, 2) + " KB/s", "6.48 KB/s",
         harness::fmt_double(s3.kb_per_second, 2) + " KB/s"});

  harness::table tc("Paper §1 hostile scenario: 60 s link crashes on top of churn");
  tc.headers({"metric", "paper S2", "measured S2", "paper S3", "measured S3"});
  tc.row({"leader availability", "98.78%", harness::fmt_percent(s2c.p_leader, 2),
          "77.42%", harness::fmt_percent(s3c.p_leader, 2)});

  t.print(std::cout);
  tc.print(std::cout);
  std::cout << "Expected shape: zero unjustified demotions and >= 99.8%\n"
               "availability for both algorithms on lossy links; an order-of-\n"
               "magnitude cost gap in S3's favour; under 60 s link crashes S2\n"
               "stays near 99% while S3 drops far below.\n";
  return 0;
}
