// End-to-end 24-hour runs against the solar + battery + grid plant: the
// scenarios behind Figures 6, 8 and 11.
#include <gtest/gtest.h>

#include "generators.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "trace/load_pattern.h"
#include "trace/solar.h"

namespace greenhetero {
namespace {

constexpr Minutes kDay{24.0 * 60.0};

SimConfig runtime_config(PolicyKind policy) {
  SimConfig cfg;
  cfg.controller.policy = policy;
  cfg.controller.profiling_noise = 0.02;
  cfg.controller.seed = 11;
  return cfg;
}

RackSimulator make_runtime_sim(PolicyKind policy, Watts solar_capacity,
                               bool low_trace = false) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg = runtime_config(policy);
  cfg.demand_trace = generate_load_trace(LoadPatternModel{},
                                         rack.peak_demand(), 7, 5);
  PowerTrace solar = low_trace ? low_solar_week(solar_capacity, 3)
                               : high_solar_week(solar_capacity, 3);
  GridSpec grid;
  grid.budget = Watts{1000.0};
  RackSimulator sim{std::move(rack),
                    make_standard_plant(std::move(solar), grid),
                    std::move(cfg)};
  sim.pretrain();
  return sim;
}

TEST(Runtime, AllThreeSourceCasesOccurOverADay) {
  RackSimulator sim = make_runtime_sim(PolicyKind::kGreenHetero, Watts{2500.0});
  const RunReport report = sim.run(kDay);
  ASSERT_EQ(report.epochs.size(), 96u);
  // Midday: renewable sufficiency; night: battery then grid fallback.
  EXPECT_GT(report.epochs_in_case(PowerCase::kRenewableSufficient), 0);
  EXPECT_GT(report.epochs_in_case(PowerCase::kBatteryOnly), 0);
  EXPECT_GT(report.epochs_in_case(PowerCase::kGridFallback), 0);
}

TEST(Runtime, EnergyConservationOverAWeek) {
  RackSimulator sim = make_runtime_sim(PolicyKind::kGreenHetero, Watts{2500.0});
  const RunReport report = sim.run(Minutes{7.0 * 24.0 * 60.0});
  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-5);
  EXPECT_GE(report.overall_epu, 0.0);
  EXPECT_LE(report.overall_epu, 1.0);
}

TEST(Runtime, BatteryRespectsDoDFloor) {
  RackSimulator sim = make_runtime_sim(PolicyKind::kGreenHetero, Watts{2500.0});
  const RunReport report = sim.run(kDay);
  const double floor_soc = 1.0 - paper_battery_spec().depth_of_discharge;
  for (const auto& e : report.epochs) {
    EXPECT_GE(e.battery_soc, floor_soc - 1e-6);
    EXPECT_LE(e.battery_soc, 1.0 + 1e-9);
  }
}

TEST(Runtime, BatteryDischargesOvernightAndChargesByDay) {
  RackSimulator sim = make_runtime_sim(PolicyKind::kGreenHetero, Watts{2500.0});
  const RunReport report = sim.run(kDay);
  double night_discharge = 0.0;
  double day_charge = 0.0;
  for (const auto& e : report.epochs) {
    const double hour = e.start.value() / 60.0;
    if (hour < 5.0) night_discharge += e.battery_discharge.value();
    if (hour > 10.0 && hour < 15.0) day_charge += e.battery_charge.value();
  }
  EXPECT_GT(night_discharge, 0.0);
  EXPECT_GT(day_charge, 0.0);
}

TEST(Runtime, GridTakesOverAfterBatteryDrains) {
  RackSimulator sim = make_runtime_sim(PolicyKind::kGreenHetero, Watts{2500.0});
  const RunReport report = sim.run(kDay);
  // Find the first grid-fallback epoch; battery must be at its floor there.
  bool found = false;
  const double floor_soc = 1.0 - paper_battery_spec().depth_of_discharge;
  for (const auto& e : report.epochs) {
    if (!e.training && e.source_case == PowerCase::kGridFallback &&
        e.actual_renewable.value() < 20.0) {
      EXPECT_NEAR(e.battery_soc, floor_soc, 0.05);
      EXPECT_GT(e.grid_power.value(), 0.0);
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(report.grid_energy.value(), 0.0);
  EXPECT_GT(report.grid_cost, 0.0);
}

TEST(Runtime, GreenHeteroParAdaptsOverTheDay) {
  RackSimulator sim = make_runtime_sim(PolicyKind::kGreenHetero, Watts{2500.0});
  const RunReport report = sim.run(kDay);
  double min_par = 1.0;
  double max_par = 0.0;
  for (const auto& e : report.epochs) {
    if (e.training || e.budget.value() <= 0.0 || e.ratios.empty()) continue;
    min_par = std::min(min_par, e.ratios[0]);
    max_par = std::max(max_par, e.ratios[0]);
  }
  // The Xeon group's PAR must move substantially with the supply.
  EXPECT_GT(max_par - min_par, 0.15);
}

TEST(Runtime, GreenHeteroOutperformsUniformOverADay) {
  RackSimulator gh = make_runtime_sim(PolicyKind::kGreenHetero, Watts{2500.0});
  RackSimulator uni = make_runtime_sim(PolicyKind::kUniform, Watts{2500.0});
  const RunReport gh_report = gh.run(kDay);
  const RunReport uni_report = uni.run(kDay);
  // The paper's headline: gains concentrate where renewable is insufficient.
  EXPECT_GT(testgen::mean_throughput_insufficient(gh_report),
            1.1 * testgen::mean_throughput_insufficient(uni_report));
  EXPECT_GE(gh_report.overall_epu, uni_report.overall_epu);
}

TEST(Runtime, LowTraceTriggersMoreBatteryActivity) {
  RackSimulator high = make_runtime_sim(PolicyKind::kGreenHetero,
                                        Watts{2500.0}, /*low_trace=*/false);
  RackSimulator low = make_runtime_sim(PolicyKind::kGreenHetero,
                                       Watts{2500.0}, /*low_trace=*/true);
  const RunReport high_report = high.run(kDay);
  const RunReport low_report = low.run(kDay);
  // Less sun -> more joint-supply/battery epochs and more grid energy.
  const int high_insufficient =
      96 - high_report.epochs_in_case(PowerCase::kRenewableSufficient);
  const int low_insufficient =
      96 - low_report.epochs_in_case(PowerCase::kRenewableSufficient);
  EXPECT_GT(low_insufficient, high_insufficient);
  EXPECT_GT(low_report.grid_energy.value(), high_report.grid_energy.value());
}

TEST(Runtime, BatteryWearStaysModest) {
  RackSimulator sim = make_runtime_sim(PolicyKind::kGreenHetero, Watts{2500.0});
  const RunReport report = sim.run(kDay);
  // The paper reports about two DoD-deep discharges per day worst case.
  EXPECT_LE(report.battery_cycles, 3.0);
}

TEST(Runtime, ShortfallsAreRare) {
  RackSimulator sim = make_runtime_sim(PolicyKind::kGreenHetero, Watts{2500.0});
  const RunReport report = sim.run(kDay);
  int shortfall_epochs = 0;
  for (const auto& e : report.epochs) {
    if (e.shortfall.value() > 1.0) ++shortfall_epochs;
  }
  // Degradation handles prediction error; sustained shortfalls would mean
  // the enforcer is not re-capping correctly.
  EXPECT_LT(shortfall_epochs, 10);
}

}  // namespace
}  // namespace greenhetero
