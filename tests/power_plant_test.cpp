#include <gtest/gtest.h>

#include "power/energy_ledger.h"
#include "power/grid.h"
#include "power/power_bus.h"
#include "power/solar_array.h"

namespace greenhetero {
namespace {

BatterySpec small_battery() {
  BatterySpec spec;
  spec.capacity = WattHours{1000.0};
  spec.depth_of_discharge = 0.4;
  spec.round_trip_efficiency = 0.8;
  spec.max_charge_power = Watts{500.0};
  spec.max_discharge_power = Watts{800.0};
  spec.rated_cycles = 1300;
  return spec;
}

PowerTrace flat_solar(Watts level) {
  return PowerTrace{Minutes{15.0}, std::vector<Watts>(96, level)};
}

RackPowerPlant make_plant(Watts solar_level, Watts grid_budget) {
  GridSpec grid;
  grid.budget = grid_budget;
  return RackPowerPlant{SolarArray{flat_solar(solar_level)},
                        Battery{small_battery()}, GridSupply{grid}};
}

TEST(GridSupply, BudgetEnforced) {
  GridSupply grid{GridSpec{Watts{1000.0}, 0.10e-3, 13.61e-3}};
  grid.draw(Watts{400.0}, Minutes{30.0});
  EXPECT_DOUBLE_EQ(grid.total_energy().value(), 200.0);
  EXPECT_DOUBLE_EQ(grid.peak_draw().value(), 400.0);
  EXPECT_THROW(grid.draw(Watts{1100.0}, Minutes{1.0}), GridError);
  EXPECT_THROW(grid.draw(Watts{-1.0}, Minutes{1.0}), GridError);
}

TEST(GridSupply, CostModel) {
  GridSupply grid{GridSpec{Watts{1000.0}, 0.10e-3, 13.61e-3}};
  grid.draw(Watts{500.0}, Minutes{120.0});  // 1000 Wh
  // 1000 Wh * 0.0001 $/Wh + 500 W * 0.01361 $/W.
  EXPECT_NEAR(grid.total_cost(), 0.1 + 6.805, 1e-9);
}

TEST(GridSupply, NegativeBudgetRejected) {
  EXPECT_THROW(GridSupply(GridSpec{Watts{-1.0}, 0.0, 0.0}), GridError);
}

TEST(SolarArray, AvailabilityAndAccounting) {
  SolarArray solar{flat_solar(Watts{400.0})};
  EXPECT_DOUBLE_EQ(solar.available(Minutes{10.0}).value(), 400.0);
  solar.account_step(Minutes{0.0}, Watts{300.0}, Minutes{60.0});
  EXPECT_DOUBLE_EQ(solar.total_produced().value(), 400.0);
  EXPECT_DOUBLE_EQ(solar.total_used().value(), 300.0);
  EXPECT_DOUBLE_EQ(solar.total_curtailed().value(), 100.0);
  EXPECT_THROW(solar.account_step(Minutes{0.0}, Watts{500.0}, Minutes{1.0}),
               TraceError);
}

TEST(PowerCase, Names) {
  EXPECT_STREQ(to_string(PowerCase::kRenewableSufficient), "A(renewable)");
  EXPECT_STREQ(to_string(PowerCase::kJointSupply), "B(renewable+battery)");
  EXPECT_STREQ(to_string(PowerCase::kBatteryOnly), "C(battery)");
  EXPECT_STREQ(to_string(PowerCase::kGridFallback), "grid");
}

TEST(PowerFlows, Totals) {
  PowerFlows f;
  f.renewable_to_load = Watts{100.0};
  f.battery_to_load = Watts{50.0};
  f.grid_to_load = Watts{25.0};
  f.renewable_to_battery = Watts{30.0};
  f.renewable_curtailed = Watts{20.0};
  EXPECT_DOUBLE_EQ(f.load().value(), 175.0);
  EXPECT_DOUBLE_EQ(f.green_to_load().value(), 150.0);
  EXPECT_DOUBLE_EQ(f.battery_input().value(), 30.0);
  EXPECT_DOUBLE_EQ(f.renewable_total().value(), 150.0);
}

TEST(Plant, ExecuteCaseAChargesSurplus) {
  RackPowerPlant plant = make_plant(Watts{400.0}, Watts{0.0});
  PowerFlows plan;
  plan.renewable_to_load = Watts{300.0};
  plan.renewable_to_battery = Watts{0.0};
  const PowerFlows out = plant.execute(plan, Minutes{0.0}, Minutes{1.0});
  EXPECT_DOUBLE_EQ(out.renewable_curtailed.value(), 100.0);
  EXPECT_DOUBLE_EQ(plant.solar().total_used().value(), 300.0 / 60.0);
}

TEST(Plant, ExecuteRejectsOveruse) {
  RackPowerPlant plant = make_plant(Watts{200.0}, Watts{100.0});
  PowerFlows plan;
  plan.renewable_to_load = Watts{300.0};  // more than available
  EXPECT_THROW(plant.execute(plan, Minutes{0.0}, Minutes{1.0}),
               PowerPlanError);
}

TEST(Plant, ExecuteRejectsDualCharging) {
  RackPowerPlant plant = make_plant(Watts{500.0}, Watts{500.0});
  PowerFlows plan;
  plan.renewable_to_battery = Watts{10.0};
  plan.grid_to_battery = Watts{10.0};
  EXPECT_THROW(plant.execute(plan, Minutes{0.0}, Minutes{1.0}),
               PowerPlanError);
}

TEST(Plant, ExecuteRejectsChargeWhileDischarging) {
  RackPowerPlant plant = make_plant(Watts{500.0}, Watts{500.0});
  PowerFlows plan;
  plan.battery_to_load = Watts{100.0};
  plan.grid_to_battery = Watts{10.0};
  EXPECT_THROW(plant.execute(plan, Minutes{0.0}, Minutes{1.0}),
               PowerPlanError);
}

TEST(Plant, ExecuteRejectsGridOverBudget) {
  RackPowerPlant plant = make_plant(Watts{0.0}, Watts{100.0});
  PowerFlows plan;
  plan.grid_to_load = Watts{150.0};
  EXPECT_THROW(plant.execute(plan, Minutes{0.0}, Minutes{1.0}),
               PowerPlanError);
}

TEST(Plant, BatteryDischargeFlows) {
  RackPowerPlant plant = make_plant(Watts{0.0}, Watts{0.0});
  PowerFlows plan;
  plan.battery_to_load = Watts{300.0};
  plant.execute(plan, Minutes{0.0}, Minutes{60.0});
  EXPECT_NEAR(plant.battery().stored().value(), 700.0, 1e-9);
}

TEST(Plant, BatteryDischargePlanBeyondDoDRejected) {
  // Usable energy is 400 Wh (1 kWh at 40% DoD): 600 W over an hour is an
  // invalid plan, not an operating condition.
  RackPowerPlant plant = make_plant(Watts{0.0}, Watts{0.0});
  PowerFlows plan;
  plan.battery_to_load = Watts{600.0};
  EXPECT_THROW(plant.execute(plan, Minutes{0.0}, Minutes{60.0}),
               PowerPlanError);
}

TEST(Plant, MeteredDischargeMatchesReturnedFlows) {
  // A self-discharging lead-acid pack 3 Wh above its DoD floor, asked for
  // everything it can deliver in one minute: the battery must meter exactly
  // the discharge the returned flows book (self-discharge is a standing
  // loss after the step, not a cut to the validated plan).
  Battery battery{lead_acid_spec(WattHours{12000.0})};
  battery.discharge(Watts{600.0}, Minutes{479.7});  // ~7203 Wh stored
  ASSERT_NEAR(battery.stored().value() -
                  battery.spec().floor_energy().value(),
              3.0, 1e-6);
  GridSpec grid;
  grid.budget = Watts{0.0};
  RackPowerPlant plant{SolarArray{flat_solar(Watts{0.0})}, std::move(battery),
                       GridSupply{grid}};
  const Minutes dt{1.0};
  PowerFlows plan;
  plan.battery_to_load = plant.battery_discharge_available(dt);
  ASSERT_NEAR(plan.battery_to_load.value(), 180.0, 1e-6);
  const WattHours before = plant.battery().total_discharged();
  const PowerFlows flows = plant.execute(plan, Minutes{0.0}, dt);
  const WattHours metered = plant.battery().total_discharged() - before;
  EXPECT_NEAR(metered.value(), (flows.battery_to_load * dt).value(), 1e-9);
  EXPECT_NEAR(metered.value(), 3.0, 1e-6);
  EXPECT_TRUE(plant.battery().at_floor());

  // The standing loss still accrues on an idle step.
  RackPowerPlant idle{SolarArray{flat_solar(Watts{0.0})},
                      Battery{lead_acid_spec(WattHours{12000.0})},
                      GridSupply{grid}};
  idle.execute(PowerFlows{}, Minutes{0.0}, Minutes{60.0});
  EXPECT_LT(idle.battery().stored().value(), 12000.0);
}

TEST(EnergyLedger, AccumulatesAndConserves) {
  EnergyLedger ledger;
  PowerFlows f;
  f.renewable_to_load = Watts{100.0};
  f.renewable_to_battery = Watts{40.0};
  f.renewable_curtailed = Watts{10.0};
  f.battery_to_load = Watts{0.0};
  f.grid_to_load = Watts{20.0};
  ledger.post(f, Minutes{30.0});
  ledger.post(f, Minutes{30.0});
  EXPECT_EQ(ledger.steps(), 2u);
  EXPECT_DOUBLE_EQ(ledger.elapsed().value(), 60.0);
  EXPECT_DOUBLE_EQ(ledger.renewable_produced().value(), 150.0);
  EXPECT_DOUBLE_EQ(ledger.load_energy().value(), 120.0);
  EXPECT_DOUBLE_EQ(ledger.green_load_energy().value(), 100.0);
  EXPECT_DOUBLE_EQ(ledger.grid_energy().value(), 20.0);
  EXPECT_NEAR(ledger.conservation_error(), 0.0, 1e-9);
  EXPECT_NEAR(ledger.renewable_utilization(), 140.0 / 150.0, 1e-12);
}

TEST(EnergyLedger, EmptyLedger) {
  const EnergyLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.renewable_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.conservation_error(), 0.0);
}

// Time-of-use tariff.

TEST(TimeOfUse, PeakWindowDetection) {
  GridSpec spec;
  spec.peak_multiplier = 3.0;
  EXPECT_TRUE(spec.in_peak(18.0));
  EXPECT_FALSE(spec.in_peak(12.0));
  EXPECT_FALSE(spec.in_peak(21.0));  // end-exclusive
  GridSpec flat;
  EXPECT_FALSE(flat.in_peak(18.0));  // multiplier 1.0 disables TOU
}

TEST(TimeOfUse, PeakEnergyBilledAtMultiplier) {
  GridSpec spec;
  spec.budget = Watts{1000.0};
  spec.energy_price = 0.10e-3;
  spec.demand_charge = 0.0;
  spec.peak_multiplier = 3.0;
  GridSupply grid{spec};
  grid.draw(Watts{1000.0}, Minutes{60.0}, /*hour=*/12.0);  // off-peak 1 kWh
  grid.draw(Watts{1000.0}, Minutes{60.0}, /*hour=*/18.0);  // peak 1 kWh
  EXPECT_DOUBLE_EQ(grid.total_energy().value(), 2000.0);
  EXPECT_DOUBLE_EQ(grid.peak_tariff_energy().value(), 1000.0);
  // $0.10 off-peak + $0.30 peak.
  EXPECT_NEAR(grid.total_cost(), 0.40, 1e-12);
}

TEST(TimeOfUse, FlatTariffUnchanged) {
  GridSupply grid{GridSpec{Watts{1000.0}, 0.10e-3, 0.0}};
  grid.draw(Watts{500.0}, Minutes{120.0}, 18.0);  // hour irrelevant
  EXPECT_DOUBLE_EQ(grid.peak_tariff_energy().value(), 0.0);
  EXPECT_NEAR(grid.total_cost(), 0.10, 1e-12);
}

}  // namespace
}  // namespace greenhetero
