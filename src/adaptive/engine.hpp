// Adaptation engine: the measurement -> configuration loop (DESIGN.md §5).
//
// One engine runs inside each service instance (when enabled) and closes
// the loop the paper leaves open between "the configurator solved (eta,
// delta) once" and "the network keeps changing":
//
//   fd_manager link samples ──> link_tracker ──> per-peer windows +
//                                                robust cluster aggregate
//                                                      │ (periodic tick)
//   fd_manager param_plan <── per-group retuner (hysteresis + dwell) <──┘
//
// Adopted operating points are pushed into the failure detector's layered
// *param_plan*: the point solved from the cluster aggregate becomes the
// group default, and every peer with a confident tracked window gets a
// per-(group, remote) refinement solved from *its own* link estimate — so
// one bad WAN link no longer drags clean LAN links to its delta. Monitors
// pick up new deltas immediately and the next reconfiguration pass
// renegotiates sender rates (RATE_REQ through the existing
// rate_controller) toward the resolved per-remote etas. Each group's
// retuner carries the group's QoS class (`qos_class`): interactive groups
// minimize detection latency, background groups minimize heartbeat rate.
// The engine tunes failure detection only; candidate ranking is the
// electors' accusation-time order (DESIGN.md §5).
//
// Tuning modes of a service instance:
//   continuous — the seed behaviour: fd_manager re-runs the paper
//                configurator every reconfig tick, undamped. No engine.
//   frozen     — the cold-start operating point is pinned forever (the
//                static baseline the adaptive bench compares against).
//   adaptive   — this engine: damped re-tuning with the min-detection
//                objective.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "adaptive/link_tracker.hpp"
#include "adaptive/retuner.hpp"
#include "common/executor.hpp"
#include "common/ids.hpp"
#include "fd/fd_manager.hpp"
#include "obs/sink.hpp"

namespace omega::adaptive {

enum class tuning_mode {
  continuous,  // per-tick paper configurator (seed behaviour)
  frozen,      // cold-start operating point pinned forever
  adaptive,    // adaptation engine: damped min-detection re-tuning
};

[[nodiscard]] std::string_view to_string(tuning_mode mode);

struct engine_options {
  tuning_mode mode = tuning_mode::continuous;
  /// Emit per-(group, remote) refinements from each peer's own tracked
  /// window on top of the aggregate-solved group default. Off = the
  /// group-global behaviour (one cluster quantile drives every link),
  /// kept as the baseline `bench/fig10_perlink` compares against.
  bool per_link = true;
};

class engine {
 public:
  /// How often the engine re-reads the tracker and consults the retuners.
  static constexpr duration kTickInterval = sec(2);

  engine(clock_source& clock, timer_service& timers, fd::fd_manager& fd,
         engine_options opts);
  ~engine();

  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  void start();
  void stop();

  /// Attaches the observability sink; adopted operating points emit retune
  /// trace events. Null disables.
  void set_sink(obs::sink* sink) { sink_ = sink; }

  /// Registers a group whose operating-point plan this engine manages;
  /// `cls` is the group's QoS class (objective of its retuner).
  void add_group(group_id group, const fd::qos_spec& qos,
                 qos_class cls = qos_class::interactive);
  void remove_group(group_id group);

  /// One link-quality sample from the failure detector's estimator.
  void on_link_sample(node_id peer, const fd::link_estimate& est,
                      time_point now);

  /// The FD dropped (group, node) — `fd_manager::drop` cleared the plan's
  /// refinement, so the retuner's per-peer damping state must go too or
  /// the two views desync and the refinement is never re-emitted.
  void on_group_member_dropped(group_id group, node_id node);
  void on_node_dropped(node_id node);

  [[nodiscard]] link_tracker& tracker() { return tracker_; }
  [[nodiscard]] const retuner* retuner_for(group_id group) const;
  [[nodiscard]] std::uint64_t total_retunes() const;
  [[nodiscard]] const engine_options& options() const { return opts_; }

 private:
  void tick();

  clock_source& clock_;
  fd::fd_manager& fd_;
  engine_options opts_;
  link_tracker tracker_;
  std::unordered_map<group_id, std::unique_ptr<retuner>> retuners_;
  scoped_timer tick_timer_;
  obs::sink* sink_ = nullptr;
  bool running_ = false;
};

}  // namespace omega::adaptive
