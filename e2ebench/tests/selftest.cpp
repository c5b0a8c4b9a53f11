// Self-tests of the benchmark's failover, agreement and percentile code, on
// synthetic leader-change logs. Run with `python3 e2ebench/run.py --selftest`.
// Log times are in microseconds (x1000 ns), the resolution of the
// metrics::group_metrics the logs are replayed into.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis.hpp"

using e2e::log_event;
using kind = e2e::log_event::kind;

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

constexpr std::int64_t kUs = 1000;

log_event up(std::int64_t t, std::uint32_t m) { return {t * kUs, kind::up, m, -1}; }
log_event down(std::int64_t t, std::uint32_t m) {
  return {t * kUs, kind::down, m, -1};
}
log_event view(std::int64_t t, std::uint32_t m, std::int64_t leader) {
  return {t * kUs, kind::view, m, leader};
}
e2e::kill_record kill(std::int64_t t, std::int64_t victim) {
  return {t * kUs, t * kUs, victim};
}

/// Window [0, 1000) us; a 50 us justification window.
e2e::group_truth truth(const std::vector<log_event>& log, std::int64_t to = 1000) {
  return e2e::replay_group_metrics(log, 0, to * kUs, 50 * kUs);
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

/// Four members up at 0, agreeing on member 0 from t = 10.
std::vector<log_event> settled_group() {
  return {up(0, 0),       up(0, 1),       up(0, 2),       up(0, 3),
          view(10, 0, 0), view(10, 1, 0), view(10, 2, 0), view(10, 3, 0)};
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  CHECK(e2e::percentile(v, 0.5) == 5.0);
  CHECK(e2e::percentile(v, 0.9) == 9.0);
  CHECK(e2e::percentile(v, 1.0) == 10.0);
  CHECK(e2e::percentile({7.0}, 0.9) == 7.0);
  CHECK(std::isnan(e2e::percentile({}, 0.5)));
  CHECK(e2e::ranked_beyond(10, 0.9) == 1);
  CHECK(e2e::ranked_beyond(100, 0.9) == 10);
  CHECK(e2e::ranked_beyond(109, 0.9) == 10);
  CHECK(e2e::ranked_beyond(111, 0.9) == 11);
  CHECK(e2e::ranked_beyond(0, 0.9) == 0);
}

void test_clean_failover() {
  auto log = settled_group();
  log.push_back(down(100, 0));
  log.push_back(view(150, 1, -1));
  log.push_back(view(160, 2, 2));
  log.push_back(view(170, 1, 2));
  log.push_back(view(180, 3, 2));
  const auto r = e2e::analyse_failovers(log, {kill(100, 0)});
  CHECK(r.errors.empty());
  CHECK(r.failovers.size() == 1);
  const auto& f = r.failovers.at(0);
  CHECK(f.completed());
  CHECK(f.end_ns == 180 * kUs);
  CHECK(f.detect_ns == 150 * kUs);
  CHECK(f.successor == 2);
  CHECK(f.changes == 4);
  const auto t = truth(log);
  CHECK(near(t.metrics.leader_availability(), ((100 - 10) + (1000 - 180)) / 1000.0));
  CHECK(t.metrics.unjustified_demotions() == 0);
  CHECK(t.metrics.agreed_leader() && t.metrics.agreed_leader()->value() == 2);
  const auto s = e2e::summarise(r.failovers, 1, 100 * kUs);
  CHECK(s.completed == 1 && s.ok == 1);
  CHECK(near(s.failover_ms.at(0), 80e-3));
  CHECK(near(s.converge_ms.at(0), 30e-3));
}

void test_flapping_views() {
  auto log = settled_group();
  log.push_back(down(100, 0));
  log.push_back(view(120, 1, -1));  // leaves the victim: detection
  log.push_back(view(130, 1, 0));   // flaps back to the dead victim
  log.push_back(view(140, 2, 3));
  log.push_back(view(150, 1, 3));
  log.push_back(view(155, 2, 1));   // survivors briefly split
  log.push_back(view(160, 3, 3));
  log.push_back(view(170, 2, 3));
  const auto r = e2e::analyse_failovers(log, {kill(100, 0)});
  CHECK(r.errors.empty());
  const auto& f = r.failovers.at(0);
  CHECK(f.detect_ns == 120 * kUs);
  CHECK(f.end_ns == 170 * kUs);
  CHECK(f.successor == 3);
  CHECK(f.changes == 7);
  const auto t = truth(log);
  CHECK(near(t.metrics.leader_availability(), (90 + (1000 - 170)) / 1000.0));
  CHECK(t.metrics.unjustified_demotions() == 0);
}

void test_victim_reelected() {
  auto log = settled_group();
  log.push_back(down(100, 0));
  // The survivors never notice; the victim restarts and elects itself.
  log.push_back(up(300, 0));
  log.push_back(view(310, 0, 0));
  const auto r = e2e::analyse_failovers(log, {kill(100, 0)});
  CHECK(r.failovers.size() == 1);
  CHECK(r.failovers.at(0).successor == 0);
  CHECK(r.errors.size() == 1);
  CHECK(r.errors.at(0).find("victim") != std::string::npos);
}

void test_dead_successor() {
  auto log = settled_group();
  log.push_back(down(50, 3));
  log.push_back(down(100, 0));
  log.push_back(view(150, 1, 3));
  log.push_back(view(160, 2, 3));
  const auto r = e2e::analyse_failovers(log, {kill(100, 0)});
  CHECK(r.failovers.at(0).end_ns == 160 * kUs);
  CHECK(r.errors.size() == 1);
  CHECK(r.errors.at(0).find("dead") != std::string::npos);
  CHECK(!truth(log).metrics.agreed_leader());
}

void test_no_agreement() {
  auto log = settled_group();
  log.push_back(down(100, 0));
  log.push_back(view(150, 1, 1));
  log.push_back(view(150, 2, 2));
  log.push_back(view(150, 3, 2));
  const auto r = e2e::analyse_failovers(log, {kill(100, 0)});
  CHECK(r.errors.empty());
  CHECK(r.failovers.size() == 1);
  CHECK(!r.failovers.at(0).completed());
  const auto t = truth(log);
  CHECK(!t.metrics.agreed_leader());
  CHECK(near(t.metrics.leader_availability(), 90 / 1000.0));
  const auto s = e2e::summarise(r.failovers, 1, 1000 * kUs);
  CHECK(s.completed == 0 && s.ok == 0 && s.failover_ms.empty());
}

void test_kill_due_while_leaderless() {
  std::vector<log_event> log = {up(0, 0), up(0, 1), view(10, 0, 0),
                                view(10, 1, 1)};
  const std::vector<e2e::kill_record> kills = {kill(100, -1)};
  const auto r = e2e::analyse_failovers(log, kills);
  CHECK(r.failovers.empty());
  CHECK(truth(log).metrics.leader_availability() == 0.0);
  const auto s = e2e::summarise(r.failovers, kills.size(), 1000 * kUs);
  CHECK(s.scheduled == 1 && s.ok == 0);
}

void test_unjustified_change() {
  auto log = settled_group();
  log.push_back(view(200, 1, 1));
  log.push_back(view(210, 0, 1));
  log.push_back(view(220, 2, 1));
  log.push_back(view(230, 3, 1));
  const auto t = truth(log);
  CHECK(t.metrics.unjustified_demotions() == 1);
  CHECK(near(t.metrics.leader_availability(), ((200 - 10) + (1000 - 230)) / 1000.0));
  // Outside the window the same move is not counted.
  CHECK(truth(log, 100).metrics.unjustified_demotions() == 0);
  // A move off a leader that crashed within the justification window is
  // justified.
  auto crashed = settled_group();
  crashed.push_back(down(200, 0));
  crashed.push_back(view(210, 1, 1));
  crashed.push_back(view(220, 2, 1));
  crashed.push_back(view(230, 3, 1));
  CHECK(truth(crashed).metrics.unjustified_demotions() == 0);
}

void test_rejoin() {
  auto log = settled_group();
  log.push_back(down(100, 0));
  log.push_back(view(150, 1, 2));
  log.push_back(view(150, 2, 2));
  log.push_back(view(150, 3, 2));
  log.push_back(up(500, 0));
  log.push_back(view(520, 0, 2));
  CHECK(e2e::analyse_failovers(log, {kill(100, 0)}).errors.empty());
  const auto t = truth(log);
  CHECK(t.rejoin_ns.size() == 1 && t.rejoin_ns.at(0) == 20 * kUs);
  CHECK(near(t.metrics.leader_availability(), (90 + (500 - 150) + (1000 - 520)) / 1000.0));
  CHECK(t.metrics.unjustified_demotions() == 0);
}

}  // namespace

int main() {
  test_percentiles();
  test_clean_failover();
  test_flapping_views();
  test_victim_reelected();
  test_dead_successor();
  test_no_agreement();
  test_kill_due_while_leaderless();
  test_unjustified_change();
  test_rejoin();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
