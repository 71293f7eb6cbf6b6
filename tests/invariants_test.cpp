// Unit tests for the runtime invariant checker: registry integrity, the
// structured violation type, the standalone static checks, and the
// end-to-end observer contract (clean runs pass, the checker never perturbs
// results, crafted bad state trips the right invariant).
#include "check/invariants.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "generators.h"
#include "power/energy_ledger.h"
#include "sim/run_report.h"

namespace greenhetero {
namespace {

using check::InvariantChecker;
using check::InvariantViolation;

TEST(InvariantRegistry, NamedUniqueAndDescribed) {
  const auto registry = check::invariant_registry();
  ASSERT_GE(registry.size(), 13u);
  std::set<std::string_view> names;
  for (const check::InvariantInfo& info : registry) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty());
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate invariant name: " << info.name;
    // Names are namespaced by evaluation level.
    EXPECT_TRUE(info.name.starts_with("substep-") ||
                info.name.starts_with("epoch-"))
        << info.name;
  }
}

TEST(InvariantViolationType, CarriesStructuredContext) {
  const InvariantViolation v("epoch-epu-bounds", "run EPU = 1.500000", 42.5,
                             3, 7);
  EXPECT_EQ(v.name(), "epoch-epu-bounds");
  EXPECT_EQ(v.details(), "run EPU = 1.500000");
  EXPECT_DOUBLE_EQ(v.sim_minutes(), 42.5);
  EXPECT_EQ(v.epoch_index(), 3);
  EXPECT_EQ(v.substep_index(), 7);
  const std::string what = v.what();
  EXPECT_NE(what.find("epoch-epu-bounds"), std::string::npos) << what;
  EXPECT_NE(what.find("epoch 3"), std::string::npos) << what;
  EXPECT_NE(what.find("run EPU"), std::string::npos) << what;
}

TEST(CheckRatios, AcceptsTheUnitSimplex) {
  EXPECT_NO_THROW(InvariantChecker::check_ratios(std::vector<double>{}));
  EXPECT_NO_THROW(
      InvariantChecker::check_ratios(std::vector<double>{0.2, 0.3, 0.5}));
  EXPECT_NO_THROW(
      InvariantChecker::check_ratios(std::vector<double>{0.0, 0.0}));
  // Interior points (battery surplus) are fine too.
  EXPECT_NO_THROW(
      InvariantChecker::check_ratios(std::vector<double>{0.1, 0.2}));
}

TEST(CheckRatios, RejectsNaNNegativeAndOvercommit) {
  const std::vector<double> with_nan{0.2,
                                     std::numeric_limits<double>::quiet_NaN()};
  try {
    InvariantChecker::check_ratios(with_nan, 30.0, 2);
    FAIL() << "NaN ratio must throw";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.name(), "epoch-par-ratios-valid");
    EXPECT_DOUBLE_EQ(v.sim_minutes(), 30.0);
    EXPECT_EQ(v.epoch_index(), 2);
    EXPECT_EQ(v.substep_index(), -1);
    EXPECT_NE(v.details().find("ratio[1]"), std::string::npos) << v.details();
  }
  EXPECT_THROW(InvariantChecker::check_ratios(std::vector<double>{-0.01, 0.5}),
               InvariantViolation);
  EXPECT_THROW(InvariantChecker::check_ratios(std::vector<double>{0.7, 0.4}),
               InvariantViolation);
}

TEST(CheckGridShares, RejectsOvercommitAndPoisonedShares) {
  const std::vector<Watts> good{Watts{400.0}, Watts{600.0}};
  EXPECT_NO_THROW(
      InvariantChecker::check_grid_shares(good, Watts{1000.0}, 0.0, 0));
  const std::vector<Watts> over{Watts{700.0}, Watts{600.0}};
  try {
    InvariantChecker::check_grid_shares(over, Watts{1000.0}, 15.0, 1);
    FAIL() << "over-committed shares must throw";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.epoch_index(), 1);
    EXPECT_NE(v.details().find("fleet budget"), std::string::npos)
        << v.details();
  }
  const std::vector<Watts> nan_share{
      Watts{std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW(
      InvariantChecker::check_grid_shares(nan_share, Watts{1000.0}, 0.0, 0),
      InvariantViolation);
  const std::vector<Watts> negative{Watts{-5.0}, Watts{100.0}};
  EXPECT_THROW(
      InvariantChecker::check_grid_shares(negative, Watts{1000.0}, 0.0, 0),
      InvariantViolation);
}

TEST(CheckEpoch, CraftedBadRecordsTripTheRightInvariant) {
  const EnergyLedger ledger;  // empty: conservation error is 0
  EpochRecord record;
  record.ratios = {0.5, 0.4};
  record.epu = 0.5;
  record.battery_soc = 0.8;

  const auto check_one = [&](const EpochRecord& r, double run_epu,
                             std::string_view expect_name) {
    InvariantChecker checker;
    InvariantChecker::EpochContext ctx;
    ctx.record = &r;
    ctx.ledger = &ledger;
    ctx.run_epu = run_epu;
    ctx.floor_soc = 0.25;
    try {
      checker.check_epoch(ctx);
      FAIL() << "expected violation of " << expect_name;
    } catch (const InvariantViolation& v) {
      EXPECT_EQ(v.name(), expect_name);
      EXPECT_EQ(v.substep_index(), -1);
    }
  };

  EpochRecord bad_epu = record;
  bad_epu.epu = 1.5;
  check_one(bad_epu, 0.5, "epoch-epu-bounds");

  check_one(record, -0.1, "epoch-epu-bounds");  // bad run-level EPU

  EpochRecord bad_soc = record;
  bad_soc.battery_soc = 0.1;  // below the 0.25 floor
  check_one(bad_soc, 0.5, "epoch-battery-dod-floor");

  EpochRecord bad_field = record;
  bad_field.grid_power = Watts{std::numeric_limits<double>::infinity()};
  check_one(bad_field, 0.5, "epoch-record-finite");

  // A clean record passes and advances the epoch counter.
  InvariantChecker checker;
  InvariantChecker::EpochContext ctx;
  ctx.record = &record;
  ctx.ledger = &ledger;
  ctx.run_epu = 0.5;
  ctx.floor_soc = 0.25;
  EXPECT_NO_THROW(checker.check_epoch(ctx));
  EXPECT_EQ(checker.epochs_checked(), 1u);
  EXPECT_GT(checker.checks_passed(), 0u);
}

TEST(CheckSubstep, BatteryMeteredFlowCatchesAPlantedMismatch) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  rack.run_full_speed();
  const Watts draw = rack.total_draw();
  GridSpec grid;
  grid.budget = draw;
  RackPowerPlant plant = make_standard_plant(
      PowerTrace{Minutes{15.0}, std::vector<Watts>(96, Watts{0.0})}, grid);
  const Minutes dt{1.0};
  PowerFlows plan;
  plan.battery_to_load = draw * 0.5;
  plan.grid_to_load = draw - plan.battery_to_load;

  InvariantChecker::SubstepContext ctx;
  ctx.rack = &rack;
  ctx.plant = &plant;
  ctx.dt = dt;
  ctx.battery_discharged_before = plant.battery().total_discharged();
  ctx.battery_charged_before = plant.battery().total_charged_input();
  ctx.flows = plant.execute(plan, Minutes{0.0}, dt);
  ASSERT_GT(plant.battery().total_discharged().value(), 0.0);
  EXPECT_NO_THROW(InvariantChecker{}.check_substep(ctx));

  const auto expect_trip = [](const InvariantChecker::SubstepContext& bad) {
    try {
      InvariantChecker{}.check_substep(bad);
      FAIL() << "expected substep-battery-metered-flow";
    } catch (const InvariantViolation& v) {
      EXPECT_EQ(v.name(), "substep-battery-metered-flow") << v.what();
    }
  };
  // The battery delivered less than the flows book (the shape of a plant
  // that clips a validated discharge without reporting it).
  InvariantChecker::SubstepContext short_delivery = ctx;
  short_delivery.battery_discharged_before += WattHours{0.005};
  expect_trip(short_delivery);
  // Charge input metered that no flow books.
  InvariantChecker::SubstepContext phantom_charge = ctx;
  phantom_charge.battery_charged_before -= WattHours{0.25};
  expect_trip(phantom_charge);
}

// ---------------------------------------------------------------------------
// Observer contract on a real simulator.

TEST(CheckerObserver, OffByDefaultOnWhenRequested) {
  testgen::SolarSimParams params;
  RackSimulator plain = testgen::make_solar_sim(params);
  EXPECT_EQ(plain.checker(), nullptr);

  params.check = true;
  RackSimulator checked = testgen::make_solar_sim(params);
  ASSERT_NE(checked.checker(), nullptr);
  EXPECT_EQ(checked.checker()->substeps_checked(), 0u);
}

TEST(CheckerObserver, CleanRunPassesAndCountsEveryStep) {
  testgen::SolarSimParams params;
  params.policy = PolicyKind::kGreenHetero;
  params.controller_seed = 11;
  params.solar_seed = 7;
  params.grid.budget = Watts{900.0};
  params.check = true;
  RackSimulator sim = testgen::make_solar_sim(params);
  sim.pretrain();
  const RunReport report = sim.run(Minutes{6.0 * 60.0});
  ASSERT_NE(sim.checker(), nullptr);
  EXPECT_EQ(sim.checker()->epochs_checked(), report.epochs.size());
  EXPECT_GT(sim.checker()->substeps_checked(), 0u);
  EXPECT_GT(sim.checker()->checks_passed(), sim.checker()->substeps_checked());
}

TEST(CheckerObserver, EnablingTheCheckerDoesNotPerturbTheRun) {
  const auto run_once = [](bool check) {
    testgen::SolarSimParams params;
    params.policy = PolicyKind::kGreenHetero;
    params.controller_seed = 21;
    params.solar_seed = 9;
    params.profiling_noise = 0.03;
    params.grid.budget = Watts{800.0};
    params.check = check;
    RackSimulator sim = testgen::make_solar_sim(params);
    sim.pretrain();
    return sim.run(Minutes{6.0 * 60.0});
  };
  const RunReport off = run_once(false);
  const RunReport on = run_once(true);
  EXPECT_EQ(off.total_work, on.total_work);
  EXPECT_EQ(off.overall_epu, on.overall_epu);
  ASSERT_EQ(off.epochs.size(), on.epochs.size());
  for (std::size_t e = 0; e < off.epochs.size(); ++e) {
    EXPECT_EQ(off.epochs[e].ratios, on.epochs[e].ratios);
    EXPECT_EQ(off.epochs[e].throughput, on.epochs[e].throughput);
    EXPECT_EQ(off.epochs[e].battery_soc, on.epochs[e].battery_soc);
    EXPECT_EQ(off.epochs[e].grid_power.value(), on.epochs[e].grid_power.value());
  }
}

}  // namespace
}  // namespace greenhetero
