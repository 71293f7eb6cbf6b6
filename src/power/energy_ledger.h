// Energy ledger: integrates per-step power flows into energy totals and
// audits conservation.
//
// Every simulated step's PowerFlows is posted here.  The ledger exposes the
// aggregates the evaluation needs (green supply, grid energy, curtailment,
// battery turnover) and a `conservation_error()` the property tests assert
// is ~0: renewable production must equal load + charging + curtailment, and
// load energy must equal the sum of its source-side contributions.
#pragma once

#include <cstddef>

#include "power/power_bus.h"
#include "util/units.h"

namespace greenhetero {

class EnergyLedger {
 public:
  /// Post one executed step of `dt`.
  void post(const PowerFlows& flows, Minutes dt);

  [[nodiscard]] std::size_t steps() const { return steps_; }
  [[nodiscard]] Minutes elapsed() const { return elapsed_; }

  [[nodiscard]] WattHours renewable_produced() const { return renewable_; }
  [[nodiscard]] WattHours renewable_to_load() const { return ren_to_load_; }
  [[nodiscard]] WattHours battery_to_load() const { return bat_to_load_; }
  [[nodiscard]] WattHours grid_to_load() const { return grid_to_load_; }
  [[nodiscard]] WattHours renewable_to_battery() const { return ren_to_bat_; }
  [[nodiscard]] WattHours grid_to_battery() const { return grid_to_bat_; }
  [[nodiscard]] WattHours curtailed() const { return curtailed_; }

  [[nodiscard]] WattHours load_energy() const {
    return ren_to_load_ + bat_to_load_ + grid_to_load_;
  }
  [[nodiscard]] WattHours green_load_energy() const {
    return ren_to_load_ + bat_to_load_;
  }
  [[nodiscard]] WattHours grid_energy() const {
    return grid_to_load_ + grid_to_bat_;
  }

  [[nodiscard]] WattHours battery_charge_energy() const {
    return ren_to_bat_ + grid_to_bat_;
  }
  /// Energy-domain counterpart of the EPU ledger's battery_round_trip
  /// bucket: the share of all charging energy the given round-trip
  /// efficiency destroys.  Tests cross-check the per-epoch watt ledger
  /// against this run-level integral.
  [[nodiscard]] WattHours battery_round_trip_loss(
      double round_trip_efficiency) const {
    return battery_charge_energy() * (1.0 - round_trip_efficiency);
  }

  /// Fraction of produced renewable energy that reached the load or battery.
  [[nodiscard]] double renewable_utilization() const;

  /// |renewable_produced - (to_load + to_battery + curtailed)| in Wh; should
  /// be numerically ~0 after any run.
  [[nodiscard]] double conservation_error() const;

  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.u64(self.steps_);
    io.f64(self.elapsed_);
    io.f64(self.renewable_);
    io.f64(self.ren_to_load_);
    io.f64(self.bat_to_load_);
    io.f64(self.grid_to_load_);
    io.f64(self.ren_to_bat_);
    io.f64(self.grid_to_bat_);
    io.f64(self.curtailed_);
  }

 private:
  std::size_t steps_ = 0;
  Minutes elapsed_{0.0};
  WattHours renewable_{0.0};
  WattHours ren_to_load_{0.0};
  WattHours bat_to_load_{0.0};
  WattHours grid_to_load_{0.0};
  WattHours ren_to_bat_{0.0};
  WattHours grid_to_bat_{0.0};
  WattHours curtailed_{0.0};
};

}  // namespace greenhetero
