#include "fd/rate_controller.hpp"

#include <gtest/gtest.h>

namespace omega::fd {
namespace {

TEST(RateController, DefaultWithoutRequests) {
  rate_controller rc(msec(250));
  EXPECT_EQ(rc.effective_eta(time_origin), msec(250));
}

TEST(RateController, FastestRequestWins) {
  rate_controller rc(msec(250));
  rc.on_request(node_id{1}, msec(200), time_origin);
  rc.on_request(node_id{2}, msec(100), time_origin);
  rc.on_request(node_id{3}, msec(400), time_origin);
  EXPECT_EQ(rc.effective_eta(time_origin), msec(100));
}

TEST(RateController, SlowRequestsRelaxBelowDefault) {
  // Requests drive the rate in both directions: when every live monitor
  // asked for a slower stream, the sender is allowed to deliver it (the
  // monitors' freshness adapts through the eta carried in each ALIVE).
  rate_controller rc(msec(250));
  rc.on_request(node_id{1}, sec(5), time_origin);
  EXPECT_EQ(rc.effective_eta(time_origin), sec(5));
  // A second, faster monitor pulls the min-combine back down.
  rc.on_request(node_id{2}, msec(400), time_origin);
  EXPECT_EQ(rc.effective_eta(time_origin), msec(400));
}

TEST(RateController, DefaultAppliesOnlyWithNoOutstandingRequests) {
  rate_controller rc(msec(250));
  EXPECT_EQ(rc.effective_eta(time_origin), msec(250));
  rc.on_request(node_id{1}, sec(1), time_origin);
  EXPECT_EQ(rc.effective_eta(time_origin + sec(30)), sec(1));
  // Once the only request expires, the cold-start default rules again.
  EXPECT_EQ(rc.effective_eta(time_origin + sec(61)), msec(250));
}

TEST(RateController, MixedExpiryMinCombinesSurvivors) {
  rate_controller rc(msec(250));
  rc.on_request(node_id{1}, msec(50), time_origin);             // expires at 60
  rc.on_request(node_id{2}, msec(500), time_origin + sec(30));  // expires at 90
  EXPECT_EQ(rc.effective_eta(time_origin + sec(40)), msec(50));
  // The fast requester aged out; the surviving slow one now defines the rate.
  EXPECT_EQ(rc.effective_eta(time_origin + sec(70)), msec(500));
  EXPECT_EQ(rc.effective_eta(time_origin + sec(95)), msec(250));
}

TEST(RateController, RequestsExpire) {
  rate_controller rc(msec(250));
  rc.on_request(node_id{1}, msec(50), time_origin);
  EXPECT_EQ(rc.effective_eta(time_origin + sec(59)), msec(50));
  EXPECT_EQ(rc.effective_eta(time_origin + sec(61)), msec(250));
}

TEST(RateController, RenewalExtendsExpiry) {
  rate_controller rc(msec(250));
  rc.on_request(node_id{1}, msec(50), time_origin);
  rc.on_request(node_id{1}, msec(50), time_origin + sec(50));
  EXPECT_EQ(rc.effective_eta(time_origin + sec(100)), msec(50));
}

TEST(RateController, LatestRequestPerNodeWins) {
  rate_controller rc(msec(250));
  rc.on_request(node_id{1}, msec(50), time_origin);
  rc.on_request(node_id{1}, msec(150), time_origin + sec(1));
  EXPECT_EQ(rc.effective_eta(time_origin + sec(2)), msec(150));
  EXPECT_EQ(rc.outstanding_requests(), 1u);
}

TEST(RateController, ForgetDropsNode) {
  rate_controller rc(msec(250));
  rc.on_request(node_id{1}, msec(50), time_origin);
  rc.forget(node_id{1});
  EXPECT_EQ(rc.effective_eta(time_origin), msec(250));
}

TEST(RateController, MalformedRequestIgnored) {
  rate_controller rc(msec(250));
  rc.on_request(node_id{1}, duration{0}, time_origin);
  rc.on_request(node_id{2}, duration{-5}, time_origin);
  EXPECT_EQ(rc.effective_eta(time_origin), msec(250));
  EXPECT_EQ(rc.outstanding_requests(), 0u);
}

TEST(RateController, SetDefaultEta) {
  rate_controller rc(msec(250));
  rc.set_default_eta(msec(125));
  EXPECT_EQ(rc.effective_eta(time_origin), msec(125));
}

}  // namespace
}  // namespace omega::fd
