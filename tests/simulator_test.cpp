#include "sim/rack_simulator.h"

#include <gtest/gtest.h>

#include "generators.h"
#include "server/combinations.h"

namespace greenhetero {
namespace {

SimConfig sim_config(PolicyKind policy, double noise = 0.0,
                     std::uint64_t seed = 7) {
  SimConfig cfg;
  cfg.controller.policy = policy;
  cfg.controller.profiling_noise = noise;
  cfg.controller.seed = seed;
  return cfg;
}

TEST(SimClock, EpochArithmetic) {
  SimClock clock{Minutes{15.0}, Minutes{1.0}};
  EXPECT_EQ(clock.substeps_per_epoch(), 15u);
  for (int i = 0; i < 14; ++i) EXPECT_FALSE(clock.advance_substep());
  EXPECT_TRUE(clock.advance_substep());
  EXPECT_EQ(clock.epoch_index(), 1u);
  EXPECT_DOUBLE_EQ(clock.now().value(), 15.0);
}

TEST(SimClock, RejectsNonDivisibleSubstep) {
  EXPECT_THROW(SimClock(Minutes{15.0}, Minutes{4.0}), std::invalid_argument);
  EXPECT_THROW(SimClock(Minutes{0.0}, Minutes{1.0}), std::invalid_argument);
}

TEST(PlantFactories, PaperBatterySpec) {
  const BatterySpec spec = paper_battery_spec();
  EXPECT_DOUBLE_EQ(spec.capacity.value(), 12000.0);
  EXPECT_DOUBLE_EQ(spec.depth_of_discharge, 0.4);
  EXPECT_DOUBLE_EQ(spec.round_trip_efficiency, 0.8);
  EXPECT_EQ(spec.rated_cycles, 1300);
}

TEST(PlantFactories, FixedBudgetPlantIsConstantGreen) {
  const RackPowerPlant plant =
      make_fixed_budget_plant(Watts{700.0}, Minutes{24.0 * 60.0});
  EXPECT_DOUBLE_EQ(plant.renewable_available(Minutes{0.0}).value(), 700.0);
  EXPECT_DOUBLE_EQ(plant.renewable_available(Minutes{1000.0}).value(), 700.0);
  EXPECT_DOUBLE_EQ(plant.grid_budget().value(), 0.0);
  EXPECT_DOUBLE_EQ(plant.battery_discharge_available(Minutes{1.0}).value(),
                   0.0);
}

TEST(Simulator, PretrainPopulatesDatabase) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{700.0}, Minutes{60.0}),
                    sim_config(PolicyKind::kGreenHetero)};
  sim.pretrain();
  EXPECT_EQ(sim.controller().database().size(), 2u);
  EXPECT_FALSE(sim.controller().needs_training(sim.rack()));
}

TEST(Simulator, PretrainNoopForUniform) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{700.0}, Minutes{60.0}),
                    sim_config(PolicyKind::kUniform)};
  sim.pretrain();
  EXPECT_EQ(sim.controller().database().size(), 0u);
}

TEST(Simulator, TrainingEpochHappensInline) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg = sim_config(PolicyKind::kGreenHetero);
  PowerTrace solar{Minutes{15.0},
                   std::vector<Watts>(100, Watts{1500.0})};
  RackSimulator sim{std::move(rack), make_standard_plant(std::move(solar)),
                    std::move(cfg)};
  const RunReport report = sim.run(Minutes{60.0});
  ASSERT_EQ(report.epochs.size(), 4u);
  EXPECT_TRUE(report.epochs[0].training);
  EXPECT_FALSE(report.epochs[1].training);
  EXPECT_EQ(sim.controller().database().size(), 2u);
}

TEST(Simulator, FixedBudgetRunConservesEnergy) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{700.0}, Minutes{300.0}),
                    sim_config(PolicyKind::kGreenHetero)};
  sim.pretrain();
  const RunReport report = sim.run(Minutes{240.0});
  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);
  EXPECT_GT(report.total_work, 0.0);
  EXPECT_GE(report.overall_epu, 0.0);
  EXPECT_LE(report.overall_epu, 1.0);
}

TEST(Simulator, GreenHeteroBeatsUniformOnFixedScarceBudget) {
  const Watts budget{700.0};
  auto run_policy = [&](PolicyKind kind) {
    Rack rack{default_runtime_rack(), Workload::kSpecJbb};
    RackSimulator sim{std::move(rack),
                      make_fixed_budget_plant(budget, Minutes{400.0}),
                      sim_config(kind)};
    sim.pretrain();
    return sim.run(Minutes{240.0});
  };
  const RunReport gh = run_policy(PolicyKind::kGreenHetero);
  const RunReport uniform = run_policy(PolicyKind::kUniform);
  EXPECT_GT(gh.mean_throughput(), 1.1 * uniform.mean_throughput());
  EXPECT_GT(gh.overall_epu, uniform.overall_epu);
}

TEST(Simulator, ReportCsvHasAllEpochs) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{700.0}, Minutes{120.0}),
                    sim_config(PolicyKind::kUniform)};
  const RunReport report = sim.run(Minutes{60.0});
  const CsvTable csv = report.to_csv();
  EXPECT_EQ(csv.row_count(), report.epochs.size());
  EXPECT_EQ(csv.column_index("epu"), 10u);
}

TEST(Simulator, ZeroSupplyYieldsZeroWork) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{0.0}, Minutes{120.0}),
                    sim_config(PolicyKind::kUniform)};
  const RunReport report = sim.run(Minutes{60.0});
  EXPECT_DOUBLE_EQ(report.total_work, 0.0);
}

TEST(Simulator, DemandTraceLimitsBudget) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg = sim_config(PolicyKind::kUniform);
  // Rack demands only 300 W although 2000 W of renewable is available.
  cfg.demand_trace =
      PowerTrace{Minutes{15.0}, std::vector<Watts>(100, Watts{300.0})};
  PowerTrace solar{Minutes{15.0}, std::vector<Watts>(100, Watts{2000.0})};
  RackSimulator sim{std::move(rack), make_standard_plant(std::move(solar)),
                    std::move(cfg)};
  const RunReport report = sim.run(Minutes{60.0});
  for (const auto& e : report.epochs) {
    EXPECT_LE(e.budget.value(), 300.0 + 1e-6);
  }
}

TEST(Simulator, RaplEnforcementConvergesToSimilarOutcome) {
  auto run_mode = [](bool rapl) {
    Rack rack{default_runtime_rack(), Workload::kSpecJbb};
    SimConfig cfg = sim_config(PolicyKind::kGreenHetero);
    cfg.rapl_enforcement = rapl;
    RackSimulator sim{std::move(rack),
                      make_fixed_budget_plant(Watts{800.0}, Minutes{400.0}),
                      std::move(cfg)};
    sim.pretrain();
    return sim.run(Minutes{240.0});
  };
  const RunReport ideal = run_mode(false);
  const RunReport rapl = run_mode(true);
  // The feedback loop converges within an epoch, so steady-state results
  // land close to the ideal SPC (small lag tax allowed).
  EXPECT_NEAR(rapl.mean_throughput(), ideal.mean_throughput(),
              0.1 * ideal.mean_throughput());
  EXPECT_NEAR(rapl.ledger.conservation_error(), 0.0, 1e-6);
  EXPECT_GE(rapl.overall_epu, 0.0);
  EXPECT_LE(rapl.overall_epu, 1.0);
}

TEST(Simulator, RaplEnforcementSurvivesSolarDay) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg = sim_config(PolicyKind::kGreenHetero);
  cfg.rapl_enforcement = true;
  PowerTrace solar{Minutes{15.0}, std::vector<Watts>(200, Watts{1200.0})};
  RackSimulator sim{std::move(rack), make_standard_plant(std::move(solar)),
                    std::move(cfg)};
  sim.pretrain();
  const RunReport report = sim.run(Minutes{6.0 * 60.0});
  EXPECT_GT(report.total_work, 0.0);
  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);
}

TEST(Simulator, RunReportAggregateHelpers) {
  RunReport report;
  EpochRecord a;
  a.training = true;
  a.throughput = 100.0;
  EpochRecord b;
  b.source_case = PowerCase::kJointSupply;
  b.throughput = 50.0;
  b.budget = Watts{100.0};
  b.ratios = {0.6, 0.4};
  EpochRecord c;
  c.source_case = PowerCase::kRenewableSufficient;
  c.throughput = 70.0;
  c.budget = Watts{100.0};
  c.ratios = {0.2, 0.8};
  report.epochs = {a, b, c};
  EXPECT_DOUBLE_EQ(report.mean_throughput(), 60.0);
  EXPECT_DOUBLE_EQ(testgen::mean_throughput_insufficient(report), 50.0);
  EXPECT_DOUBLE_EQ(report.mean_ratio(0), 0.4);
  EXPECT_EQ(report.epochs_in_case(PowerCase::kJointSupply), 1);
}

}  // namespace
}  // namespace greenhetero
