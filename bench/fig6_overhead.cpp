// Figure 6 — network-bandwidth overhead of S2 vs S3.
//
// Paper (§6.5): per-workstation overhead at n = 4, 8, 12 workstations in
// two networks — the real LAN (0.025 ms, 0) and the worst simulated lossy
// network (100 ms, 0.1). S2's cost grows roughly quadratically with n
// (every process heartbeats every other process forever), S3's only
// linearly (eventually only the leader sends). Headline worst-case points:
// S3 <= 6.48 KB/s, S2 <= 62.38 KB/s.
//
// Only the traffic half is reproduced: the paper's CPU half measured the
// authors' P4 3.2 GHz hosts, and a simulation has no host CPU to measure
// (DESIGN.md §5). bench/fig14_live measures CPU on real sockets.
#include <iostream>

#include "bench_support.hpp"

using namespace omega;

namespace {

struct paper_point {
  double kbs_lan, kbs_lossy;  // KB/s
};

// Read off Figure 6 (n = 4, 8, 12).
constexpr paper_point kPaperS2[3] = {{4.0, 8.0}, {14.0, 28.0}, {30.0, 62.38}};
constexpr paper_point kPaperS3[3] = {{1.2, 2.2}, {2.4, 4.4}, {3.6, 6.48}};

harness::experiment_result run(election::algorithm alg, std::size_t n,
                               bool lossy) {
  harness::scenario sc;
  sc.name = std::string("fig6-") + std::string(election::to_string(alg)) +
            (lossy ? "-lossy-" : "-lan-") + std::to_string(n);
  sc.alg = alg;
  sc.nodes = n;
  sc.links = lossy ? net::link_profile::lossy(msec(100), 0.1)
                   : net::link_profile::lan();
  sc = bench::with_defaults(sc);
  // Overhead rates converge fast; a quarter of the usual window suffices.
  sc.measured = sc.measured / 4;
  return bench::run_cell(sc);
}

}  // namespace

int main() {
  const std::size_t sizes[3] = {4, 8, 12};

  harness::table net_tbl(
      "Figure 6 (bottom): average traffic per workstation (KB/s)");
  net_tbl.headers({"n", "net", "S2 paper", "S2 measured", "S3 paper",
                   "S3 measured", "S2/S3 ratio"});

  for (int i = 0; i < 3; ++i) {
    for (bool lossy : {false, true}) {
      const auto s2 = run(election::algorithm::omega_lc, sizes[i], lossy);
      const auto s3 = run(election::algorithm::omega_l, sizes[i], lossy);
      const char* net_label = lossy ? "(100ms, 0.1)" : "(0.025ms, 0)";

      net_tbl.row({std::to_string(sizes[i]), net_label,
                   harness::fmt_double(lossy ? kPaperS2[i].kbs_lossy
                                             : kPaperS2[i].kbs_lan, 2),
                   harness::fmt_double(s2.kb_per_second, 2),
                   harness::fmt_double(lossy ? kPaperS3[i].kbs_lossy
                                             : kPaperS3[i].kbs_lan, 2),
                   harness::fmt_double(s3.kb_per_second, 2),
                   harness::fmt_double(s2.kb_per_second /
                                           std::max(s3.kb_per_second, 1e-9),
                                       1)});
    }
  }

  net_tbl.print(std::cout);
  std::cout << "Expected shape: S2 grows ~quadratically with n, S3 ~linearly;\n"
               "overhead rises when the network degrades; at n = 12 the S2/S3\n"
               "traffic ratio is roughly an order of magnitude (paper: 9.6x).\n";
  return 0;
}
