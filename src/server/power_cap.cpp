#include "server/power_cap.h"

#include <algorithm>
#include <cmath>

namespace greenhetero {

PowerCapController::PowerCapController(PowerCapConfig config)
    : config_(config) {
  if (config_.window.value() <= 0.0) {
    throw std::invalid_argument("power cap: window must be positive");
  }
}

int PowerCapController::update(ServerSim& server, Watts cap, Minutes dt) {
  if (cap.value() < 0.0) {
    throw std::invalid_argument("power cap: cap must be non-negative");
  }
  // Exponential moving average equivalent to the sliding window.
  const double blend =
      std::min(1.0, dt.value() / config_.window.value());
  if (!seeded_) {
    average_ = server.draw();
    seeded_ = true;
  } else {
    average_ = average_ * (1.0 - blend) + server.draw() * blend;
  }

  const DvfsLadder& ladder = server.ladder();
  int state = server.state();
  if (average_.value() > cap.value()) {
    // Over the cap: throttle one state down (to off if even the lowest
    // operating state exceeds the cap).
    state = std::max(DvfsLadder::kOffState, state - 1);
    if (state >= 1 &&
        ladder.state_power(1).value() > cap.value()) {
      state = DvfsLadder::kOffState;
    }
  } else if (average_.value() < cap.value() * (1.0 - kHysteresis)) {
    // Comfortably below: step up if the next state still fits the cap.
    const int next = state + 1;
    if (next <= ladder.operating_states() &&
        ladder.state_power(next).value() <= cap.value()) {
      state = next;
    }
  }
  server.enforce_budget(ladder.state_power(state) + Watts{1e-9});
  return server.state();
}

}  // namespace greenhetero
