// Stochastic model of one directed communication link.
//
// Reproduces the two fault models of the paper's evaluation (§6.1):
//  * "lossy links": every message is dropped with probability `loss_probability`;
//    surviving messages are delayed by an exponentially distributed time with
//    mean `mean_delay` (the paper's D).
//  * "links prone to crashes": the link alternates between up (exponential
//    mean up-time) and down (exponential mean down-time); while down, *all*
//    messages are dropped — the receiver is completely disconnected from the
//    sender. While up, losses and delays are those of the base profile.
#pragma once

#include <optional>

#include "common/random.hpp"
#include "common/time.hpp"

namespace omega::net {

/// Shape of the per-message delay distribution.
enum class delay_distribution {
  /// Exponentially distributed delays — the paper's §6.1 model.
  exponential,
  /// Heavy-tailed Pareto delays (WAN-grade tails): most messages arrive
  /// quickly, a polynomially decaying fraction arrives very late. Only the
  /// simulated traffic takes this shape: the configurator models every
  /// link's delay tail as exponential (§6.1).
  pareto,
};

/// Steady-state behaviour of a link: (D, p_L) in the paper's notation.
struct link_profile {
  /// Probability that a message is dropped (p_L).
  double loss_probability = 0.0;
  /// Mean of the message delay (D).
  duration mean_delay = usec(25);
  delay_distribution delay_dist = delay_distribution::exponential;
  /// Pareto tail exponent (used when `delay_dist` is pareto). Smaller =
  /// heavier tail; values are clamped above 1 so the mean stays `mean_delay`.
  double pareto_alpha = 2.5;

  /// The paper's five headline lossy-link settings.
  static link_profile lan() { return {0.0, usec(25)}; }
  static link_profile lossy(duration d, double pl) { return {pl, d}; }
  /// A WAN link with Pareto-tailed delays of the given mean and exponent.
  static link_profile heavy_tailed(duration d, double pl, double alpha = 2.5) {
    link_profile p;
    p.loss_probability = pl;
    p.mean_delay = d;
    p.delay_dist = delay_distribution::pareto;
    p.pareto_alpha = alpha;
    return p;
  }
};

/// Crash/recovery dynamics of a link; disabled by default.
struct link_crash_profile {
  bool enabled = false;
  duration mean_uptime = sec(600);
  duration mean_downtime = sec(3);

  static link_crash_profile none() { return {}; }
  static link_crash_profile crashes(duration up, duration down) {
    return {true, up, down};
  }
};

/// Per-directed-link state machine deciding the fate of each message.
class link_model {
 public:
  link_model(link_profile profile, rng stream)
      : profile_(profile), rng_(stream) {}

  /// Decides the fate of one message sent now: `nullopt` means dropped,
  /// otherwise the in-flight delay before delivery.
  std::optional<duration> transit();

  void set_profile(link_profile profile) { profile_ = profile; }
  [[nodiscard]] const link_profile& profile() const { return profile_; }

  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool up() const { return up_; }

  /// Advances the lazy crash/recovery process to `now`. The up/down flip
  /// schedule is drawn on demand from this link's own RNG stream the first
  /// time the link is touched after `enable_crashes` — arming 250k timers up
  /// front for a 500-node mesh (O(n²)) was the old, eager design. `anchor`
  /// is the enable time: the first up-period starts there, exactly like the
  /// first eagerly-scheduled flip used to.
  void advance_crashes(const link_crash_profile& p, time_point anchor,
                       time_point now) {
    if (!flips_armed_) {
      flips_armed_ = true;
      next_flip_ = anchor + draw_uptime(p);
    }
    while (next_flip_ <= now) {
      up_ = !up_;
      next_flip_ += up_ ? draw_uptime(p) : draw_downtime(p);
    }
  }

  /// Draws the next up or down period for the crash process.
  duration draw_uptime(const link_crash_profile& p) { return rng_.exponential(p.mean_uptime); }
  duration draw_downtime(const link_crash_profile& p) { return rng_.exponential(p.mean_downtime); }

 private:
  link_profile profile_;
  bool up_ = true;
  bool flips_armed_ = false;
  time_point next_flip_{};
  rng rng_;
};

}  // namespace omega::net
