#include "power/grid.h"

namespace greenhetero {

GridSupply::GridSupply(GridSpec spec) : spec_(spec) {
  if (spec_.budget.value() < 0.0) {
    throw GridError("grid: budget must be non-negative");
  }
}

void GridSupply::set_budget(Watts budget) {
  if (budget.value() < 0.0) {
    throw GridError("grid: budget must be non-negative");
  }
  spec_.budget = budget;
}

WattHours GridSupply::draw(Watts power, Minutes dt, double hour_of_day) {
  if (power.value() < 0.0) {
    throw GridError("grid: draw must be non-negative");
  }
  if (power.value() > budget().value() + 1e-6) {
    throw GridError("grid: draw exceeds budget");
  }
  const WattHours energy = power * dt;
  energy_ += energy;
  if (spec_.in_peak(hour_of_day)) {
    peak_energy_ += energy;
  }
  peak_ = max(peak_, power);
  return energy;
}

double GridSupply::total_cost() const {
  const double base = (energy_ - peak_energy_).value() * spec_.energy_price;
  const double peak_tariff =
      peak_energy_.value() * spec_.energy_price * spec_.peak_multiplier;
  return base + peak_tariff + peak_.value() * spec_.demand_charge;
}

}  // namespace greenhetero
