#include "core/health.h"

namespace greenhetero {

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kNormal:
      return "normal";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kSafe:
      return "safe";
    case HealthState::kRecovering:
      return "recovering";
  }
  return "?";
}

const char* HealthSignals::reason() const {
  if (stale_samples) return "stale_samples";
  if (divergent_samples) return "divergent_samples";
  if (solver_failed) return "solver_failed";
  if (excess_shortfall) return "excess_shortfall";
  return "ok";
}

std::optional<HealthTracker::Transition> HealthTracker::observe_epoch(
    const HealthSignals& signals) {
  const HealthState from = state_;
  if (signals.bad()) {
    ++consecutive_bad_;
    consecutive_good_ = 0;
    switch (state_) {
      case HealthState::kNormal:
      case HealthState::kRecovering:
        state_ = HealthState::kDegraded;
        break;
      case HealthState::kDegraded:
        if (consecutive_bad_ >= kSafeAfter) {
          state_ = HealthState::kSafe;
        }
        break;
      case HealthState::kSafe:
        break;
    }
  } else {
    ++consecutive_good_;
    consecutive_bad_ = 0;
    switch (state_) {
      case HealthState::kNormal:
        break;
      case HealthState::kDegraded:
      case HealthState::kSafe:
        state_ = HealthState::kRecovering;
        break;
      case HealthState::kRecovering:
        if (consecutive_good_ >= kRecoverAfter) {
          state_ = HealthState::kNormal;
        }
        break;
    }
  }
  if (state_ == from) return std::nullopt;
  return Transition{from, state_};
}

}  // namespace greenhetero
