#include "core/source_selector.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace greenhetero {

PowerSourceSelector::PowerSourceSelector(SelectorConfig config)
    : config_(config) {}

SourceDecision PowerSourceSelector::decide(Watts predicted_renewable,
                                           Watts predicted_demand,
                                           const RackPowerPlant& plant,
                                           Minutes dt) const {
  const SourceDecision decision =
      decide_impl(predicted_renewable, predicted_demand, plant, dt);
  if (telemetry::Telemetry* t = telemetry::current()) {
    t->metrics()
        .counter("gh_source_decisions_total", decision.source_case)
        .increment();
    if (!t->traced()) return decision;
    t->emit("source_select",
            {{"case", to_string(decision.source_case)},
             {"predicted_renewable_w", predicted_renewable.value()},
             {"predicted_demand_w", predicted_demand.value()},
             {"server_budget_w", decision.server_budget.value()},
             {"from_renewable_w", decision.from_renewable.value()},
             {"from_battery_w", decision.from_battery.value()},
             {"from_grid_w", decision.from_grid.value()},
             {"charge_from_renewable", decision.charge_from_renewable},
             {"charge_from_grid", decision.charge_from_grid}});
  }
  return decision;
}

SourceDecision PowerSourceSelector::decide_impl(Watts predicted_renewable,
                                                Watts predicted_demand,
                                                const RackPowerPlant& plant,
                                                Minutes dt) const {
  SourceDecision decision;
  const Watts renewable = max(Watts{0.0}, predicted_renewable);
  const Watts demand = max(Watts{0.0}, predicted_demand);
  Watts battery_avail = plant.battery_discharge_available(dt);
  if (config_.rationing_horizon.value() > 0.0) {
    const WattHours usable{
        std::max(0.0, plant.battery().stored().value() -
                          plant.battery().spec().floor_energy().value())};
    battery_avail = min(battery_avail, usable / config_.rationing_horizon);
  }
  const bool battery_usable =
      battery_avail.value() > 1e-6 && !plant.battery().at_floor();

  if (renewable >= demand && renewable > kRenewableOutageThreshold) {
    // Case A: renewable alone; surplus charges the battery.
    decision.source_case = PowerCase::kRenewableSufficient;
    decision.server_budget = demand;
    decision.from_renewable = demand;
    decision.charge_from_renewable = !plant.battery().full();
    return decision;
  }

  if (renewable > kRenewableOutageThreshold) {
    // Renewable present but short of demand.
    const Watts gap = demand - renewable;
    if (battery_usable) {
      // Case B: renewable + battery jointly supply.
      decision.source_case = PowerCase::kJointSupply;
      decision.from_renewable = renewable;
      decision.from_battery = min(gap, battery_avail);
      decision.server_budget = renewable + decision.from_battery;
      // A remaining gap (battery rate-limited) falls to the grid.
      const Watts residual = demand - decision.server_budget;
      if (residual.value() > 1e-6) {
        decision.from_grid = min(residual, plant.grid_budget());
        decision.server_budget += decision.from_grid;
      }
      return decision;
    }
    // Battery drained: grid supplements renewable and recharges the battery.
    decision.source_case = PowerCase::kGridFallback;
    decision.from_renewable = renewable;
    decision.from_grid = min(gap, plant.grid_budget());
    decision.server_budget = renewable + decision.from_grid;
    decision.charge_from_grid =
        plant.battery().soc() <
        1.0 - plant.battery().spec().depth_of_discharge + kRechargeMargin;
    return decision;
  }

  // Renewable unavailable.
  if (battery_usable) {
    // Case C: battery carries the load; when it can no longer sustain the
    // demand (rate- or DoD-limited) the grid takes over the residual.
    decision.from_battery = min(demand, battery_avail);
    decision.server_budget = decision.from_battery;
    const Watts residual = demand - decision.from_battery;
    if (residual.value() > 1e-6) {
      decision.from_grid = min(residual, plant.grid_budget());
      decision.server_budget += decision.from_grid;
    }
    decision.source_case = decision.from_grid.value() > 1e-6
                               ? PowerCase::kGridFallback
                               : PowerCase::kBatteryOnly;
    return decision;
  }
  // Battery at DoD floor: grid carries the load and recharges the battery.
  decision.source_case = PowerCase::kGridFallback;
  decision.from_grid = min(demand, plant.grid_budget());
  decision.server_budget = decision.from_grid;
  decision.charge_from_grid = true;
  return decision;
}

}  // namespace greenhetero
