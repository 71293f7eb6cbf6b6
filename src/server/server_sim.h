// Simulated server: the unit the Enforcer's Server Power Controller acts on.
//
// A server holds the ground-truth PerfCurve of its current workload and a
// DVFS ladder spanning that workload's operating power range.  Enforcing a
// power budget picks the highest ladder state that fits (the paper's linear
// power-to-state map); the server then *draws* that state's power and
// produces the curve's throughput at that draw.  A budget below the lowest
// operating state puts the server into the sleep state (zero draw, zero
// throughput) — this is the waste mechanism behind the EPU results.
#pragma once

#include <optional>

#include "server/dvfs.h"
#include "server/perf_curve.h"
#include "server/server_spec.h"
#include "util/units.h"

namespace greenhetero {

class ServerSim {
 public:
  ServerSim(const ServerSpec& spec, PerfCurve curve);

  [[nodiscard]] const ServerSpec& spec() const { return spec_; }
  [[nodiscard]] const PerfCurve& curve() const { return curve_; }
  [[nodiscard]] const DvfsLadder& ladder() const { return ladder_; }

  /// Swap in a new workload's ground truth (rebuilds the ladder; the server
  /// restarts in the sleep state).
  void set_curve(PerfCurve curve);

  /// SPC enforcement: clamp to the best state within `budget`.
  /// Returns the chosen state.
  int enforce_budget(Watts budget);

  /// Training-run behaviour (ondemand governor with ample power): top state.
  void run_full_speed();

  void power_off();

  /// Fault injection: an offline (crashed) server draws nothing and ignores
  /// enforcement until it comes back; recovery leaves it asleep until the
  /// next enforcement.
  void set_online(bool online);
  [[nodiscard]] bool online() const { return online_; }

  /// Fault injection: DVFS actuation latched at `state` (clamped to the
  /// ladder) — enforcement and full-speed requests land there regardless of
  /// the commanded budget.  nullopt clears the fault.
  void set_stuck_state(std::optional<int> state);
  [[nodiscard]] std::optional<int> stuck_state() const { return stuck_; }

  /// Fault injection: actuation miscalibration — every enforced budget is
  /// shifted by `offset` watts before the ladder lookup, so the server
  /// draws more (positive) or less (negative) than commanded.
  void set_actuation_offset(Watts offset) { actuation_offset_ = offset; }
  [[nodiscard]] Watts actuation_offset() const { return actuation_offset_; }

  [[nodiscard]] int state() const { return state_; }
  /// Wall power currently drawn.
  [[nodiscard]] Watts draw() const { return draw_; }
  /// Throughput currently produced (metric units / s).
  [[nodiscard]] double throughput() const {
    if (!throughput_) {
      throughput_ =
          state_ == DvfsLadder::kOffState ? 0.0 : curve_.throughput_at(draw_);
    }
    return *throughput_;
  }

  /// Integrate the current operating point over `dt`.
  void accumulate(Minutes dt);

  [[nodiscard]] WattHours energy_used() const { return energy_; }
  /// Work = throughput integrated over time (metric units * minutes / 60,
  /// i.e. metric-unit-hours).
  [[nodiscard]] double work_done() const { return work_; }

  /// Checkpoint the operating state (spec/curve/ladder are rebuilt from the
  /// restored workload before this is loaded).  Loading refuses a state or
  /// stuck state outside the ladder, naming the field.
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    const int top = self.ladder_.operating_states();
    io.i64_in(self.state_, 0, top, "server: state");
    io.boolean(self.online_);
    bool stuck = self.stuck_.has_value();
    int stuck_state = self.stuck_.value_or(0);
    io.boolean(stuck);
    io.i64_in(stuck_state, 0, top, "server: stuck state");
    io.f64(self.actuation_offset_);
    io.f64(self.energy_);
    io.f64(self.work_);
    if constexpr (Io::kLoading) {
      self.stuck_ = stuck ? std::optional<int>(stuck_state) : std::nullopt;
      self.refresh_operating_point();
    }
  }

 private:
  /// Re-derive the cached operating point after `state_`, `curve_` or
  /// `ladder_` moved.  The draw is refreshed at once; the throughput (a
  /// `pow`) waits for its first read, since pretraining re-enforces every
  /// server at each sweep point but reads one per group.
  void refresh_operating_point();
  /// Enter `state`, refreshing the operating point only if it moved.
  void move_to(int state);

  ServerSpec spec_;
  PerfCurve curve_;
  DvfsLadder ladder_;
  int state_ = DvfsLadder::kOffState;
  bool online_ = true;
  std::optional<int> stuck_;
  Watts actuation_offset_{0.0};
  WattHours energy_{0.0};
  double work_ = 0.0;
  // The operating point of `state_`: bitwise ladder_.state_power(state_)
  // and curve_.throughput_at(draw_).  Thread contract as for the battery's
  // max_discharge memo: the lazy throughput makes a const read write, so
  // one thread drives a server at a time.
  Watts draw_{0.0};
  mutable std::optional<double> throughput_;
};

}  // namespace greenhetero
