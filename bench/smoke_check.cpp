// Scratch validation: one short cell per algorithm, LAN + worst lossy link.
#include <chrono>
#include <iostream>

#include "bench_support.hpp"

using namespace omega;

int main() {
  for (auto alg : {election::algorithm::omega_id, election::algorithm::omega_lc,
                   election::algorithm::omega_l}) {
    for (const auto& link : {bench::kLossyGrid[0], bench::kLossyGrid[4]}) {
      harness::scenario sc;
      sc.name = std::string(election::to_string(alg)) + link.label;
      sc.alg = alg;
      sc.links = net::link_profile::lossy(link.mean_delay, link.loss);
      sc.measured = sec(600);
      auto wall0 = std::chrono::steady_clock::now();
      auto r = bench::run_cell(sc);
      auto wall1 = std::chrono::steady_clock::now();
      std::cout << sc.name << ": P_leader=" << r.p_leader
                << " Tr=" << r.tr_mean_s << "s (n=" << r.tr_samples << ")"
                << " lambda_u=" << r.lambda_u << "/h"
                << " kb/s=" << r.kb_per_second
                << " events=" << r.events_executed << " wall="
                << std::chrono::duration_cast<std::chrono::milliseconds>(wall1 -
                                                                         wall0)
                       .count()
                << "ms\n";
    }
  }
  return 0;
}
