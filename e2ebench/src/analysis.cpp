#include "analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>

namespace e2e {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

std::size_t ranked_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

namespace {

struct member_state {
  bool alive = false;
  std::int64_t view = -1;
};

class failover_replay {
 public:
  explicit failover_replay(const std::vector<kill_record>& kills) : kills_(kills) {}

  failover_report run(const std::vector<log_event>& log) {
    std::size_t i = 0;
    while (i < log.size()) {
      const std::int64_t t = log[i].t_ns;
      for (; i < log.size() && log[i].t_ns == t; ++i) apply(log[i]);
      evaluate(t);
    }
    for (const auto& f : open_) report_.failovers.push_back(f);
    std::sort(report_.failovers.begin(), report_.failovers.end(),
              [](const failover& a, const failover& b) {
                return a.kill_ns < b.kill_ns;
              });
    return std::move(report_);
  }

 private:
  [[nodiscard]] bool alive(std::int64_t pid) const {
    if (pid < 0) return false;
    const auto it = members_.find(static_cast<std::uint32_t>(pid));
    return it != members_.end() && it->second.alive;
  }

  /// The view every live member except `excluded` holds, or -1.
  [[nodiscard]] std::int64_t common_view(std::int64_t excluded) const {
    std::int64_t common = -1;
    bool any = false;
    for (const auto& [pid, m] : members_) {
      if (!m.alive || static_cast<std::int64_t>(pid) == excluded) continue;
      if (m.view < 0) return -1;
      if (any && m.view != common) return -1;
      common = m.view;
      any = true;
    }
    return common;
  }

  void apply(const log_event& ev) {
    member_state& m = members_[ev.member];
    switch (ev.what) {
      case log_event::kind::view:
        if (!m.alive) {
          report_.errors.push_back("leader view logged by a dead member " +
                                   std::to_string(ev.member));
          return;
        }
        m.view = ev.leader;
        for (failover& f : open_) {
          if (static_cast<std::int64_t>(ev.member) == f.victim) continue;
          ++f.changes;
          if (f.detect_ns < 0 && ev.leader != f.victim) f.detect_ns = ev.t_ns;
        }
        break;
      case log_event::kind::down:
      case log_event::kind::up:
        m.alive = ev.what == log_event::kind::up;
        m.view = -1;
        break;
    }
  }

  void evaluate(std::int64_t t) {
    // Kills whose `down` entry has been applied open their failover now.
    while (next_kill_ < kills_.size() && kills_[next_kill_].at_ns <= t) {
      const kill_record& k = kills_[next_kill_++];
      if (k.victim < 0) continue;
      failover f;
      f.kill_ns = k.at_ns;
      f.victim = k.victim;
      open_.push_back(f);
    }
    for (auto it = open_.begin(); it != open_.end();) {
      const std::int64_t x = common_view(it->victim);
      if (x < 0 || (x == it->victim && !alive(it->victim))) {
        ++it;
        continue;
      }
      it->end_ns = t;
      it->successor = x;
      if (x == it->victim) {
        report_.errors.push_back("failover successor is the victim " +
                                 std::to_string(x));
      } else if (!alive(x)) {
        report_.errors.push_back("failover successor " + std::to_string(x) +
                                 " is a dead process");
      }
      report_.failovers.push_back(*it);
      it = open_.erase(it);
    }
  }

  const std::vector<kill_record>& kills_;
  std::map<std::uint32_t, member_state> members_;
  std::vector<failover> open_;
  std::size_t next_kill_ = 0;
  failover_report report_;
};

omega::time_point at_ns(std::int64_t ns) {
  return omega::time_origin + omega::duration{ns / 1000};
}

}  // namespace

failover_report analyse_failovers(const std::vector<log_event>& log,
                                  const std::vector<kill_record>& kills) {
  return failover_replay(kills).run(log);
}

group_truth replay_group_metrics(const std::vector<log_event>& log,
                                 std::int64_t window_from_ns,
                                 std::int64_t window_to_ns,
                                 std::int64_t justification_ns) {
  group_truth out;
  omega::metrics::group_metrics& gm = out.metrics;
  gm.set_justification_window(omega::duration{justification_ns / 1000});
  std::int64_t now = 0;
  std::vector<std::int64_t> restarts;  // waiting for the next agreement
  gm.set_agreement_observer(
      [&](omega::time_point, std::optional<omega::process_id> leader) {
        if (!leader) return;
        for (const std::int64_t up : restarts) out.rejoin_ns.push_back(now - up);
        restarts.clear();
      });
  std::set<std::uint32_t> joined;
  bool begun = false;
  bool finished = false;
  for (const log_event& ev : log) {
    if (!begun && ev.t_ns >= window_from_ns) {
      gm.begin(at_ns(window_from_ns));
      begun = true;
    }
    if (begun && !finished && ev.t_ns >= window_to_ns) {
      gm.finish(at_ns(window_to_ns));
      finished = true;
    }
    now = ev.t_ns;
    const omega::process_id pid{ev.member};
    switch (ev.what) {
      case log_event::kind::view:
        gm.on_leader_view(at_ns(now), pid,
                          ev.leader < 0 ? std::nullopt
                                        : std::optional<omega::process_id>(
                                              static_cast<std::uint32_t>(ev.leader)));
        break;
      case log_event::kind::down:
        gm.on_crash(at_ns(now), pid);
        break;
      case log_event::kind::up:
        if (!joined.insert(ev.member).second) {
          gm.on_recover(at_ns(now), pid);
          if (now >= window_from_ns && now < window_to_ns) restarts.push_back(now);
        }
        gm.on_join(at_ns(now), pid);
        break;
    }
  }
  if (!begun) gm.begin(at_ns(window_from_ns));
  if (!finished) gm.finish(at_ns(window_to_ns));
  gm.set_agreement_observer({});
  return out;
}

failover_summary summarise(const std::vector<failover>& failovers,
                           std::size_t scheduled, std::int64_t ok_bound_ns) {
  failover_summary s;
  s.scheduled = scheduled;
  for (const failover& f : failovers) {
    if (!f.completed()) continue;
    ++s.completed;
    const std::int64_t took = f.end_ns - f.kill_ns;
    if (took <= ok_bound_ns) ++s.ok;
    s.failover_ms.push_back(static_cast<double>(took) * 1e-6);
    s.changes.push_back(static_cast<double>(f.changes));
    if (f.detect_ns >= 0) {
      s.detect_ms.push_back(static_cast<double>(f.detect_ns - f.kill_ns) * 1e-6);
      s.converge_ms.push_back(static_cast<double>(f.end_ns - f.detect_ns) *
                              1e-6);
    }
  }
  return s;
}

}  // namespace e2e
