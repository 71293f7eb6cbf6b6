// RAPL-style windowed power capping.
//
// The SPC's one-shot budget->state map (DvfsLadder::state_for_budget)
// assumes the enforcement mechanism is exact and instantaneous.  Real
// hardware capping — Intel RAPL, the mechanism a deployment of this system
// would use — is a feedback loop instead: the package tracks average power
// over a sliding window and steps frequency down when the average exceeds
// the cap, up when it sits safely below.  This controller emulates that
// behaviour on a ServerSim, with hysteresis so the state does not chatter
// between two levels whose powers straddle the cap.
#pragma once

#include <stdexcept>

#include "server/server_sim.h"
#include "util/units.h"

namespace greenhetero {

struct PowerCapConfig {
  /// Averaging window (RAPL's PL1 time window; seconds-scale).
  Minutes window{0.05};
};

class PowerCapController {
 public:
  /// Step the state up only when the windowed average is below
  /// cap * (1 - kHysteresis); prevents up/down chatter at the boundary.
  static constexpr double kHysteresis = 0.05;

  explicit PowerCapController(PowerCapConfig config = {});

  [[nodiscard]] const PowerCapConfig& config() const { return config_; }
  [[nodiscard]] Watts windowed_average() const { return average_; }

  /// One control step of length `dt`: fold the server's current draw into
  /// the windowed average, then adjust its DVFS state against `cap`.
  /// Returns the state selected.
  int update(ServerSim& server, Watts cap, Minutes dt);

  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.f64(self.average_);
    io.boolean(self.seeded_);
  }

 private:
  PowerCapConfig config_;
  Watts average_{0.0};
  bool seeded_ = false;
};

}  // namespace greenhetero
