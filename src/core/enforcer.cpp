#include "core/enforcer.h"

#include <algorithm>

#include "telemetry/span.h"
#include "telemetry/telemetry.h"

namespace greenhetero {

std::vector<Watts> Enforcer::apply_allocation(Rack& rack,
                                              const Allocation& allocation,
                                              Watts budget) {
  GH_SPAN("enforce");
  if (allocation.ratios.size() != rack.group_count()) {
    throw RackError("enforcer: allocation size must match rack groups");
  }
  std::vector<Watts> group_power;
  group_power.reserve(allocation.ratios.size());
  for (double ratio : allocation.ratios) {
    group_power.push_back(budget * std::max(0.0, ratio));
  }
  if (!allocation.active_counts.empty()) {
    rack.enforce_allocation_subset(group_power, allocation.active_counts);
  } else {
    rack.enforce_allocation(group_power);
  }
  if (telemetry::Telemetry* t = telemetry::current()) {
    t->metrics().counter("gh_enforcements_total").increment();
    // One DVFS-ladder quantization pass per group budget handed to the
    // rack (enforce_allocation snaps every group onto its ladder).
    t->metrics()
        .counter("gh_dvfs_quantization_passes_total")
        .increment(static_cast<double>(group_power.size()));
    if (!t->traced()) return group_power;
    std::vector<double> group_w;
    group_w.reserve(group_power.size());
    for (Watts w : group_power) group_w.push_back(w.value());
    t->emit("enforce", {{"budget_w", budget.value()},
                        {"group_w", std::move(group_w)},
                        {"enforced_draw_w", rack.total_draw().value()}});
  }
  return group_power;
}

StepPlan Enforcer::plan_step(const SourceDecision& decision,
                             Watts actual_renewable, Watts load_draw,
                             const RackPowerPlant& plant, Minutes dt) {
  StepPlan plan;
  PowerFlows& flows = plan.flows;
  flows.source_case = decision.source_case;

  const Watts renewable = max(Watts{0.0}, actual_renewable);
  Watts remaining = load_draw;

  // 1. Renewable first.
  flows.renewable_to_load = min(remaining, renewable);
  remaining -= flows.renewable_to_load;

  // 2. Battery next — but only if the decision planned battery supply (in
  //    Case A / grid-fallback the battery is reserved for charging).
  if (remaining.value() > 1e-9 && decision.from_battery.value() > 0.0) {
    flows.battery_to_load = min(remaining, plant.battery_discharge_available(dt));
    remaining -= flows.battery_to_load;
  }

  // 3. Grid last, within its budget.
  if (remaining.value() > 1e-9 &&
      (decision.from_grid.value() > 0.0 ||
       decision.source_case == PowerCase::kGridFallback)) {
    flows.grid_to_load = min(remaining, plant.grid_budget());
    remaining -= flows.grid_to_load;
  }
  plan.shortfall = max(Watts{0.0}, remaining);

  // 4. Battery charging: never while discharging, single source only.
  const bool discharging = flows.battery_to_load.value() > 1e-9;
  if (!discharging) {
    const Watts acceptance = plant.battery_charge_acceptable(dt);
    if (decision.charge_from_renewable) {
      const Watts surplus =
          max(Watts{0.0}, renewable - flows.renewable_to_load);
      flows.renewable_to_battery = min(surplus, acceptance);
    } else if (decision.charge_from_grid) {
      const Watts headroom =
          max(Watts{0.0}, plant.grid_budget() - flows.grid_to_load);
      flows.grid_to_battery = min(headroom, acceptance);
    }
  }

  flows.renewable_curtailed =
      max(Watts{0.0},
          renewable - flows.renewable_to_load - flows.renewable_to_battery);
  return plan;
}

telemetry::StepGaps Enforcer::attribute_gaps(
    const Rack& rack, std::span<const Watts> group_power) {
  telemetry::StepGaps gaps;
  const std::size_t n = std::min(rack.group_count(), group_power.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double budget = group_power[i].value();
    const double gap = budget - rack.group_draw(i).value();
    if (gap <= 0.0) continue;
    const ServerSim& rep = rack.group_representative(i);
    if (!rack.group_online(i) || rep.stuck_state().has_value() ||
        rep.actuation_offset().value() != 0.0) {
      gaps.fault_w += gap;
      continue;
    }
    const auto count = static_cast<double>(rack.group(i).count);
    const PerfCurve& curve = rack.group_curve(i);
    const double per_server = budget / count;
    if (per_server < curve.idle_power().value()) {
      gaps.idle_floor_w += gap;
      continue;
    }
    const double clamp =
        std::min(gap, std::max(0.0, budget - curve.peak_power().value() * count));
    gaps.solver_clamp_w += clamp;
    // The ladder owns the quantization estimate; anything the clamp and the
    // ladder cannot explain (e.g. RAPL enforcement lag) stays unclaimed.
    const double quantized =
        rep.ladder().quantization_gap(Watts{per_server}).value() * count;
    gaps.dvfs_quantization_w += std::min(gap - clamp, quantized);
  }
  return gaps;
}

}  // namespace greenhetero
