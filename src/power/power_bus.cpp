#include "power/power_bus.h"

#include <cmath>

namespace greenhetero {

const char* to_string(PowerCase c) {
  switch (c) {
    case PowerCase::kRenewableSufficient:
      return "A(renewable)";
    case PowerCase::kJointSupply:
      return "B(renewable+battery)";
    case PowerCase::kBatteryOnly:
      return "C(battery)";
    case PowerCase::kGridFallback:
      return "grid";
  }
  return "?";
}

RackPowerPlant::RackPowerPlant(SolarArray solar, Battery battery,
                               GridSupply grid)
    : solar_(std::move(solar)),
      battery_(std::move(battery)),
      grid_(std::move(grid)) {}

PowerFlows RackPowerPlant::execute(PowerFlows plan, Minutes t, Minutes dt) {
  constexpr double kTol = 1e-6;
  const Watts avail = solar_.available(t);
  const Watts renewable_used = plan.renewable_to_load + plan.renewable_to_battery;
  if (renewable_used.value() > avail.value() + kTol) {
    throw PowerPlanError("power plan: renewable use exceeds availability");
  }
  if (plan.renewable_to_battery.value() > kTol &&
      plan.grid_to_battery.value() > kTol) {
    throw PowerPlanError("power plan: two sources charging the battery");
  }
  const Watts battery_in = plan.battery_input();
  if (battery_in.value() > battery_.max_charge(dt).value() + kTol) {
    throw PowerPlanError("power plan: battery charge exceeds acceptance");
  }
  // The limit is never negative, so a draw within kTol cannot exceed it:
  // skip the lookup (a memo probe, or a bisection on a miss).
  if (plan.battery_to_load.value() > kTol &&
      plan.battery_to_load.value() >
          battery_.max_discharge(dt).value() + kTol) {
    throw PowerPlanError("power plan: battery discharge exceeds limit");
  }
  if (plan.battery_to_load.value() > kTol && battery_in.value() > kTol) {
    throw PowerPlanError("power plan: battery charging while discharging");
  }
  const Watts grid_total = plan.grid_to_load + plan.grid_to_battery;
  if (grid_total.value() > grid_.budget().value() + kTol) {
    throw PowerPlanError("power plan: grid draw exceeds budget");
  }
  const double hour_of_day = std::fmod(t.value(), 24.0 * 60.0) / 60.0;

  // Apply the flows against each component's meter, on the battery state
  // the plan was validated on.
  plan.renewable_curtailed = max(Watts{0.0}, avail - renewable_used);
  solar_.account_step(t, renewable_used, dt);
  if (plan.battery_to_load.value() > 0.0) {
    battery_.discharge(min(plan.battery_to_load,
                           battery_.max_discharge(dt)),
                       dt);
  }
  if (battery_in.value() > 0.0) {
    battery_.charge(min(battery_in, battery_.max_charge(dt)), dt);
  }
  if (grid_total.value() > 0.0) {
    grid_.draw(min(grid_total, grid_.budget()), dt, hour_of_day);
  }
  // Standing losses accrue every step regardless of the plan.  They come
  // after the flows: applied first, they would shrink the discharge limit
  // between validation and metering, and the battery would deliver less
  // than the returned flows book.
  battery_.stand(dt);
  return plan;
}

}  // namespace greenhetero
