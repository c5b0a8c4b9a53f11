// Cost-model tests: the exact bandwidth accounting behind Figure 6.
#include <gtest/gtest.h>

#include "metrics/cost_model.hpp"

namespace omega::metrics {
namespace {

net::traffic_totals traffic(std::uint64_t sent, std::uint64_t sent_bytes,
                            std::uint64_t recv, std::uint64_t recv_bytes) {
  net::traffic_totals t;
  t.datagrams_sent = sent;
  t.bytes_sent = sent_bytes;
  t.datagrams_received = recv;
  t.bytes_received = recv_bytes;
  return t;
}

TEST(CostModel, ZeroTrafficZeroCost) {
  EXPECT_DOUBLE_EQ(cost_model::sent_kb_per_second(traffic(0, 0, 0, 0), sec(60)),
                   0.0);
}

TEST(CostModel, BandwidthCountsSentOnly) {
  // The paper reports traffic *generated* per workstation.
  const auto t = traffic(100, 61440, 100, 1024000);
  EXPECT_NEAR(cost_model::sent_kb_per_second(t, sec(60)), 1.0, 1e-12);
}

TEST(CostModel, ShorterWindowHigherRate) {
  const auto t = traffic(100, 61440, 0, 0);
  EXPECT_GT(cost_model::sent_kb_per_second(t, sec(30)),
            cost_model::sent_kb_per_second(t, sec(60)));
}

TEST(CostModel, ZeroElapsedIsSafe) {
  EXPECT_DOUBLE_EQ(cost_model::sent_kb_per_second(traffic(10, 100, 0, 0),
                                                  duration{0}),
                   0.0);
}

}  // namespace
}  // namespace omega::metrics
