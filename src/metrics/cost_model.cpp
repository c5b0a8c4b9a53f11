#include "metrics/cost_model.hpp"

namespace omega::metrics {

double cost_model::sent_kb_per_second(const net::traffic_totals& t,
                                      duration elapsed) {
  const double seconds = to_seconds(elapsed);
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(t.bytes_sent) / 1024.0 / seconds;
}

}  // namespace omega::metrics
