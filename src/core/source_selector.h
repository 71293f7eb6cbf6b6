// Power source selection (Section IV-B.1, Figure 6).
//
// At each scheduling epoch the selector compares the predicted renewable
// supply against the predicted rack demand and picks one of the paper's
// cases:
//   Case A  renewable >= demand: renewable carries the load alone and the
//           surplus charges the battery;
//   Case B  0 < renewable < demand: battery discharges to cover the gap;
//   Case C  renewable ~ 0: battery carries the load alone;
//   Grid    the battery has drained to its DoD floor: the grid (within its
//           budget) carries the load and recharges the battery.
// The grid is strictly the last resort, and only one source charges the
// battery at a time.
#pragma once

#include "power/power_bus.h"
#include "util/units.h"

namespace greenhetero {

/// Epoch-level plan the Solver allocates within and the Enforcer executes.
struct SourceDecision {
  PowerCase source_case = PowerCase::kRenewableSufficient;
  /// Total power the Solver may distribute to servers this epoch.
  Watts server_budget{0.0};
  /// Planned components of that budget.
  Watts from_renewable{0.0};
  Watts from_battery{0.0};
  Watts from_grid{0.0};
  /// Battery charging directives for the epoch.
  bool charge_from_renewable = false;
  bool charge_from_grid = false;
};

struct SelectorConfig {
  /// Battery rationing horizon.  0 (the paper's behaviour) discharges
  /// greedily until the DoD floor; a positive horizon caps the discharge so
  /// the currently usable energy would last at least this long, spreading
  /// the green energy across a night instead of draining in the evening
  /// peak and then starving on the capped grid (Section III-C's concern
  /// about unbalanced discharging, made concrete).
  Minutes rationing_horizon{0.0};
};

class PowerSourceSelector {
 public:
  /// Below this the renewable source counts as unavailable (Case C).
  static constexpr Watts kRenewableOutageThreshold{10.0};
  /// Battery SoC margin above the DoD floor at which grid recharge engages.
  static constexpr double kRechargeMargin = 0.02;

  explicit PowerSourceSelector(SelectorConfig config = {});

  /// Decide sources for one epoch of length `dt` from the predicted
  /// renewable supply and rack demand and the plant's actual capabilities.
  [[nodiscard]] SourceDecision decide(Watts predicted_renewable,
                                      Watts predicted_demand,
                                      const RackPowerPlant& plant,
                                      Minutes dt) const;

 private:
  [[nodiscard]] SourceDecision decide_impl(Watts predicted_renewable,
                                           Watts predicted_demand,
                                           const RackPowerPlant& plant,
                                           Minutes dt) const;

  SelectorConfig config_;
};

}  // namespace greenhetero
