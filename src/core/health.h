// Controller health tracking and the graceful-degradation state machine.
//
// Every epoch the controller distils its feedback into HealthSignals —
// stale samples (every awake group's meter reads zero), enforced-vs-drawn
// divergence, solver failure, persistent supply shortfall — and feeds them
// to the HealthTracker:
//
//     normal ──bad──► degraded ──bad×kSafeAfter──► safe
//        ▲               │  ▲                        │
//        │             good │bad                   good
//        │               ▼  │                        ▼
//        └─good×kRecoverAfter── recovering ◄─────────┘
//
// While degraded or worse the controller *quarantines* feedback (poisoned
// samples never merge into the PerfPowerDatabase); in safe mode it stops
// trusting the solver's inputs entirely and falls back to the last-known-
// good allocation (then a Uniform split).  Hysteresis on both edges keeps
// one noisy epoch from flapping the mode.
#pragma once

#include <optional>


namespace greenhetero {

enum class HealthState { kNormal, kDegraded, kSafe, kRecovering };
inline constexpr int kHealthStateCount = 4;

[[nodiscard]] const char* to_string(HealthState state);

/// One epoch's distilled health evidence.
struct HealthSignals {
  bool stale_samples = false;      ///< all awake groups read zero power
  bool divergent_samples = false;  ///< draw far below enforced allocation
  bool solver_failed = false;      ///< allocation threw SolverError
  bool excess_shortfall = false;   ///< sources persistently under the plan

  [[nodiscard]] bool bad() const {
    return stale_samples || divergent_samples || solver_failed ||
           excess_shortfall;
  }
  /// Dominant reason for telemetry, "ok" when none.
  [[nodiscard]] const char* reason() const;
};

class HealthTracker {
 public:
  /// Consecutive bad epochs (while degraded) before entering safe mode.
  static constexpr int kSafeAfter = 3;
  /// Consecutive good epochs (while recovering) before returning to normal.
  static constexpr int kRecoverAfter = 3;

  [[nodiscard]] HealthState state() const { return state_; }
  /// Feedback is quarantined in every state but normal.
  [[nodiscard]] bool quarantine() const {
    return state_ != HealthState::kNormal;
  }
  [[nodiscard]] bool safe_mode() const {
    return state_ == HealthState::kSafe;
  }
  [[nodiscard]] int consecutive_bad() const { return consecutive_bad_; }
  [[nodiscard]] int consecutive_good() const { return consecutive_good_; }

  struct Transition {
    HealthState from;
    HealthState to;

    /// The flight-recorder trigger edge: the tracker left normal (any
    /// degradation onset; re-degrading from recovering does not count —
    /// the first dump already captured the incident).
    [[nodiscard]] bool leaves_normal() const {
      return from == HealthState::kNormal && to != HealthState::kNormal;
    }
  };

  /// Feed one epoch's signals; returns the transition when the state
  /// changed.  Training epochs should not be fed (no meaningful feedback).
  std::optional<Transition> observe_epoch(const HealthSignals& signals);

  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.enum_u8(self.state_, kHealthStateCount, "health: state");
    io.i64(self.consecutive_bad_);
    io.i64(self.consecutive_good_);
  }

 private:
  HealthState state_ = HealthState::kNormal;
  int consecutive_bad_ = 0;
  int consecutive_good_ = 0;
};

}  // namespace greenhetero
