// DVFS power-state ladder (the ordered state set S_N of Section IV-B.4).
//
// A server exposes one off/sleep state plus N operating frequency states
// whose wall powers are evenly spaced between idle (lowest frequency) and
// peak (highest frequency).  The Server Power Controller maps a power budget
// onto this ladder exactly as the paper describes: values within the power
// range scale linearly onto a position in S_N; budgets below idle power force
// the off state; budgets above peak clamp to the top state.
#pragma once

#include <stdexcept>
#include <vector>

#include "util/units.h"

namespace greenhetero {

class DvfsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class DvfsLadder {
 public:
  /// Off-state index; operating states are 1..operating_states().
  static constexpr int kOffState = 0;

  DvfsLadder(Watts idle_power, Watts peak_power, int operating_states);

  [[nodiscard]] int operating_states() const { return operating_states_; }
  [[nodiscard]] int state_count() const { return operating_states_ + 1; }
  [[nodiscard]] Watts idle_power() const { return idle_power_; }
  [[nodiscard]] Watts peak_power() const { return peak_power_; }

  /// Wall power drawn in `state` (0 for the off state).
  [[nodiscard]] Watts state_power(int state) const;

  /// Highest state whose draw fits within `budget`; kOffState when even the
  /// lowest operating state does not fit.  This is the SPC's enforcement map.
  [[nodiscard]] int state_for_budget(Watts budget) const;

  /// Watts of `budget` lost to state quantization: the gap between the
  /// budget and the draw of the state enforcement would pick.  Zero when the
  /// budget lands exactly on a state, and zero below the idle floor — that
  /// whole budget is the idle-floor loss bucket's business, not
  /// quantization's.
  [[nodiscard]] Watts quantization_gap(Watts budget) const;

 private:
  Watts idle_power_;
  Watts peak_power_;
  int operating_states_;
};

}  // namespace greenhetero
