#include "server/dvfs.h"

#include <cmath>

namespace greenhetero {

DvfsLadder::DvfsLadder(Watts idle_power, Watts peak_power,
                       int operating_states)
    : idle_power_(idle_power),
      peak_power_(peak_power),
      operating_states_(operating_states) {
  if (operating_states < 2) {
    throw DvfsError("dvfs: need at least 2 operating states");
  }
  if (idle_power.value() < 0.0 || peak_power.value() <= idle_power.value()) {
    throw DvfsError("dvfs: require 0 <= idle < peak power");
  }
}

Watts DvfsLadder::state_power(int state) const {
  if (state < 0 || state > operating_states_) {
    throw DvfsError("dvfs: state out of range");
  }
  if (state == kOffState) return Watts{0.0};
  const double frac = static_cast<double>(state - 1) /
                      static_cast<double>(operating_states_ - 1);
  return idle_power_ + (peak_power_ - idle_power_) * frac;
}

int DvfsLadder::state_for_budget(Watts budget) const {
  if (budget.value() < idle_power_.value()) {
    return kOffState;
  }
  if (budget.value() >= peak_power_.value()) {
    return operating_states_;
  }
  // Linear scale of the budget position within [idle, peak] onto [1, N].
  const double frac = (budget - idle_power_) / (peak_power_ - idle_power_);
  const int state =
      1 + static_cast<int>(std::floor(frac *
                                      static_cast<double>(operating_states_ - 1)));
  return std::min(state, operating_states_);
}

Watts DvfsLadder::quantization_gap(Watts budget) const {
  const int state = state_for_budget(budget);
  if (state == kOffState) return Watts{0.0};
  return max(Watts{0.0}, budget - state_power(state));
}

}  // namespace greenhetero
