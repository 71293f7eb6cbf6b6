// Rack power plant: the PDU-level composition of solar array, battery and
// grid behind one rack (Figure 2 of the paper), plus the per-step flow
// record the scheduler plans and the plant executes.
//
// Responsibilities are split to mirror the paper: the *scheduler* (core)
// decides the flows (which source powers the load, what charges the
// battery); the *plant* (here) validates a plan against physics — renewable
// availability, battery rate/DoD limits, grid budget, single charging
// source — meters every flow, and keeps the books that EPU and the energy
// conservation tests audit.
#pragma once

#include <stdexcept>

#include "power/battery.h"
#include "power/grid.h"
#include "power/solar_array.h"
#include "util/units.h"

namespace greenhetero {

class PowerPlanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The paper's three power-source cases (Fig. 6) plus the last-resort grid
/// fallback used when the battery has drained to its DoD floor.
enum class PowerCase {
  kRenewableSufficient,  ///< Case A: renewable covers the load, surplus charges
  kJointSupply,          ///< Case B: renewable + battery jointly cover the load
  kBatteryOnly,          ///< Case C: renewable unavailable, battery alone
  kGridFallback,         ///< battery at DoD floor: grid carries the load
};

[[nodiscard]] const char* to_string(PowerCase c);

/// Power flows for one simulation step (all non-negative watts).
struct PowerFlows {
  PowerCase source_case = PowerCase::kRenewableSufficient;
  Watts renewable_to_load{0.0};
  Watts battery_to_load{0.0};
  Watts grid_to_load{0.0};
  Watts renewable_to_battery{0.0};
  Watts grid_to_battery{0.0};
  Watts renewable_curtailed{0.0};

  /// Total power delivered to the rack's servers.
  [[nodiscard]] Watts load() const {
    return renewable_to_load + battery_to_load + grid_to_load;
  }
  /// Green power delivered to the load (renewable + battery) — the EPU
  /// denominator's supply side for one step.
  [[nodiscard]] Watts green_to_load() const {
    return renewable_to_load + battery_to_load;
  }
  [[nodiscard]] Watts battery_input() const {
    return renewable_to_battery + grid_to_battery;
  }
  [[nodiscard]] Watts renewable_total() const {
    return renewable_to_load + renewable_to_battery + renewable_curtailed;
  }
};

class RackPowerPlant {
 public:
  RackPowerPlant(SolarArray solar, Battery battery, GridSupply grid);

  [[nodiscard]] const SolarArray& solar() const { return solar_; }
  [[nodiscard]] const Battery& battery() const { return battery_; }
  [[nodiscard]] const GridSupply& grid() const { return grid_; }

  [[nodiscard]] Watts renewable_available(Minutes t) const {
    return solar_.available(t);
  }
  [[nodiscard]] Watts battery_discharge_available(Minutes dt) const {
    return battery_.max_discharge(dt);
  }
  [[nodiscard]] Watts battery_charge_acceptable(Minutes dt) const {
    return battery_.max_charge(dt);
  }
  [[nodiscard]] Watts grid_budget() const { return grid_.budget(); }

  /// Adjust the grid budget (the fleet coordinator reallocates shares of a
  /// datacenter-level budget between racks every epoch).
  void set_grid_budget(Watts budget) { grid_.set_budget(budget); }

  /// Fault-injection pass-throughs (driven by the simulator's injector).
  void set_solar_outage(bool outage) { solar_.set_outage(outage); }
  void set_grid_outage(bool outage) { grid_.set_outage(outage); }
  void set_battery_fault_derate(double fraction) {
    battery_.set_fault_derate(fraction);
  }
  /// True while any supply-side fault is active (solar/grid outage, battery
  /// derate) — the EPU ledger then books shortfall as fault-induced rather
  /// than a grid-budget-cap effect.
  [[nodiscard]] bool source_fault_active() const {
    return solar_.in_outage() || grid_.in_outage() ||
           battery_.fault_derate() > 0.0;
  }

  /// Validate and apply one step's flows at elapsed time `t` for `dt`.
  /// The plan's `renewable_curtailed` is recomputed here as the residual of
  /// availability; all other fields must satisfy the plant's limits or a
  /// PowerPlanError is thrown (a planning bug, not an operating condition).
  PowerFlows execute(PowerFlows plan, Minutes t, Minutes dt);

  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.object(self.solar_);
    io.object(self.battery_);
    io.object(self.grid_);
  }

 private:
  SolarArray solar_;
  Battery battery_;
  GridSupply grid_;
};

}  // namespace greenhetero
