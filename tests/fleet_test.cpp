#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "server/combinations.h"
#include "trace/solar.h"

namespace greenhetero {
namespace {

FleetConfig fleet_config(Watts total_grid_budget,
                         GridShareMode mode = GridShareMode::kStatic) {
  FleetConfig config;
  config.total_grid_budget = total_grid_budget;
  config.mode = mode;
  return config;
}

RackSimulator make_rack_sim(Watts solar_capacity, PolicyKind policy,
                            std::uint64_t seed,
                            Minutes epoch = Minutes{15.0},
                            Minutes substep = Minutes{1.0}) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = policy;
  cfg.controller.seed = seed;
  cfg.controller.epoch = epoch;
  cfg.controller.profiling_noise = 0.0;
  cfg.substep = substep;
  GridSpec grid;
  grid.budget = Watts{500.0};  // overwritten by the fleet each epoch
  PowerTrace solar =
      generate_solar_trace(high_solar_model(solar_capacity), 2, seed);
  return RackSimulator{std::move(rack), make_standard_plant(std::move(solar), grid),
                       std::move(cfg)};
}

TEST(Fleet, Validation) {
  EXPECT_THROW(Fleet({}, fleet_config(Watts{1000.0})), FleetError);

  std::vector<RackSimulator> racks;
  racks.push_back(make_rack_sim(Watts{2000.0}, PolicyKind::kUniform, 1));
  EXPECT_THROW(Fleet(std::move(racks), fleet_config(Watts{-1.0})),
               FleetError);

  std::vector<RackSimulator> mismatched;
  mismatched.push_back(make_rack_sim(Watts{2000.0}, PolicyKind::kUniform, 1));
  mismatched.push_back(make_rack_sim(Watts{2000.0}, PolicyKind::kUniform, 2,
                                     Minutes{30.0}));
  EXPECT_THROW(
      Fleet(std::move(mismatched), fleet_config(Watts{1000.0})),
      FleetError);
}

TEST(Fleet, ModeNames) {
  EXPECT_EQ(to_string(GridShareMode::kStatic), "static");
  EXPECT_EQ(to_string(GridShareMode::kDemandProportional),
            "demand-proportional");
  // Out-of-enum values (a corrupted config, a cast gone wrong) must still
  // render something diagnosable, not "?".
  EXPECT_EQ(to_string(static_cast<GridShareMode>(42)), "GridShareMode(42)");
}

TEST(Fleet, EpochMismatchReportsBothValues) {
  std::vector<RackSimulator> mismatched;
  mismatched.push_back(make_rack_sim(Watts{2000.0}, PolicyKind::kUniform, 1));
  mismatched.push_back(make_rack_sim(Watts{2000.0}, PolicyKind::kUniform, 2,
                                     Minutes{30.0}));
  try {
    Fleet fleet{std::move(mismatched), fleet_config(Watts{1000.0})};
    FAIL() << "expected FleetError";
  } catch (const FleetError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("15"), std::string::npos) << message;
    EXPECT_NE(message.find("30"), std::string::npos) << message;
    EXPECT_NE(message.find("min"), std::string::npos) << message;
    EXPECT_NE(message.find("rack 1"), std::string::npos) << message;
  }
}

TEST(Fleet, EpochCheckUsesRelativeTolerance) {
  // Long epochs whose representable values differ by a few ulps must not be
  // rejected: 1e-7 minutes on a day-long epoch is far below any physical
  // significance but above the old absolute 1e-9 cutoff.
  std::vector<RackSimulator> racks;
  racks.push_back(make_rack_sim(Watts{2000.0}, PolicyKind::kUniform, 1,
                                Minutes{1440.0}, Minutes{1440.0}));
  racks.push_back(make_rack_sim(Watts{2000.0}, PolicyKind::kUniform, 2,
                                Minutes{1440.0 + 1e-7},
                                Minutes{1440.0 + 1e-7}));
  EXPECT_NO_THROW(
      Fleet(std::move(racks), fleet_config(Watts{1000.0})));
}

TEST(Fleet, DivideGridBudgetProportional) {
  const double deficits[] = {100.0, 300.0};
  const auto shares = divide_grid_budget(Watts{1000.0}, deficits);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_NEAR(shares[0].value(), 250.0, 1e-9);
  EXPECT_NEAR(shares[1].value(), 750.0, 1e-9);
}

TEST(Fleet, DivideGridBudgetClampsNegativeDeficits) {
  // A rack with surplus green power (negative deficit) gets nothing; its
  // surplus must not inflate the others' shares past the budget.
  const double deficits[] = {-500.0, 200.0, 200.0};
  const auto shares = divide_grid_budget(Watts{1000.0}, deficits);
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_NEAR(shares[0].value(), 0.0, 1e-9);
  EXPECT_NEAR(shares[1].value(), 500.0, 1e-9);
  EXPECT_NEAR(shares[2].value(), 500.0, 1e-9);
}

TEST(Fleet, DivideGridBudgetZeroTotalFallsBackToEqualSplit) {
  const double deficits[] = {0.0, 0.0, -3.0, 0.0};
  const auto shares = divide_grid_budget(Watts{1000.0}, deficits);
  ASSERT_EQ(shares.size(), 4u);
  for (const Watts s : shares) EXPECT_NEAR(s.value(), 250.0, 1e-9);
}

TEST(Fleet, DivideGridBudgetNonFiniteDeficitFallsBackToEqualSplit) {
  // A NaN or Inf deficit (poisoned sensor reading) must never propagate
  // into the shares — every rack keeps a finite, equal slice.
  for (const double poison :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    const double deficits[] = {100.0, poison, 300.0};
    const auto shares = divide_grid_budget(Watts{900.0}, deficits);
    ASSERT_EQ(shares.size(), 3u);
    for (const Watts s : shares) {
      EXPECT_TRUE(std::isfinite(s.value()));
      EXPECT_NEAR(s.value(), 300.0, 1e-9);
    }
  }
}

TEST(Fleet, DivideGridBudgetEmptyInput) {
  EXPECT_TRUE(divide_grid_budget(Watts{1000.0}, {}).empty());
}

TEST(Rebalancer, EqualSplitIsHoistedOncePerEpoch) {
  // The equal-share fallback is budget / n computed once per division, not
  // per rack: every rack sees the exact same bit pattern.
  const std::vector<double> zeros(7, 0.0);
  const std::vector<Watts> shares = divide_grid_budget(Watts{1234.5}, zeros);
  ASSERT_EQ(shares.size(), 7u);
  for (const Watts share : shares) EXPECT_EQ(share.value(), 1234.5 / 7.0);
}

TEST(Rebalancer, DegenerateInputsFallBackToEqualSplit) {
  // Bitwise, not approximately: a poisoned or all-surplus fleet gets the
  // exact hoisted equal share.
  const Watts budget{900.0};
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    const std::vector<double> deficits{100.0, poison, 300.0};
    for (const Watts share : divide_grid_budget(budget, deficits)) {
      EXPECT_EQ(share.value(), 300.0);
    }
  }
  const std::vector<double> surplus{-50.0, 0.0, -1e-12};
  for (const Watts share : divide_grid_budget(budget, surplus)) {
    EXPECT_EQ(share.value(), 300.0);
  }
}

TEST(Fleet, SingleRackMatchesStandaloneRun) {
  // A fleet of one with a static share equal to the standalone grid budget
  // must reproduce the standalone simulation exactly.
  RackSimulator standalone =
      make_rack_sim(Watts{2000.0}, PolicyKind::kGreenHetero, 7);
  standalone.set_grid_budget(Watts{1000.0});
  standalone.pretrain();
  const RunReport expected = standalone.run(Minutes{6.0 * 60.0});

  std::vector<RackSimulator> racks;
  racks.push_back(make_rack_sim(Watts{2000.0}, PolicyKind::kGreenHetero, 7));
  Fleet fleet{std::move(racks), fleet_config(Watts{1000.0})};
  fleet.pretrain();
  const FleetReport report = fleet.run(Minutes{6.0 * 60.0});

  ASSERT_EQ(report.racks.size(), 1u);
  ASSERT_EQ(report.racks[0].epochs.size(), expected.epochs.size());
  EXPECT_NEAR(report.total_work, expected.total_work, 1e-9);
  EXPECT_NEAR(report.racks[0].overall_epu, expected.overall_epu, 1e-12);
}

TEST(Fleet, StaticSharesAreEqual) {
  std::vector<RackSimulator> racks;
  for (int i = 0; i < 4; ++i) {
    racks.push_back(make_rack_sim(Watts{2000.0}, PolicyKind::kUniform,
                                  static_cast<std::uint64_t>(i)));
  }
  const Fleet fleet{std::move(racks), fleet_config(Watts{2000.0})};
  const auto shares = fleet.plan_grid_shares();
  ASSERT_EQ(shares.size(), 4u);
  for (const Watts s : shares) {
    EXPECT_NEAR(s.value(), 500.0, 1e-9);
  }
}

TEST(Fleet, ProportionalSharesSumToBudget) {
  std::vector<RackSimulator> racks;
  racks.push_back(make_rack_sim(Watts{500.0}, PolicyKind::kUniform, 1));
  racks.push_back(make_rack_sim(Watts{4000.0}, PolicyKind::kUniform, 2));
  Fleet fleet{std::move(racks),
              fleet_config(Watts{1500.0}, GridShareMode::kDemandProportional)};
  fleet.pretrain();
  (void)fleet.run(Minutes{60.0});  // advance into the day
  const auto shares = fleet.plan_grid_shares();
  double total = 0.0;
  for (const Watts s : shares) {
    EXPECT_GE(s.value(), -1e-9);
    total += s.value();
  }
  EXPECT_LE(total, 1500.0 + 1e-6);
}

TEST(Fleet, ProportionalFavoursTheStarvedRack) {
  // Rack 0 has a tiny solar array, rack 1 a huge one: once the sun is up,
  // the proportional coordinator must give rack 0 the larger grid share.
  std::vector<RackSimulator> racks;
  racks.push_back(make_rack_sim(Watts{200.0}, PolicyKind::kUniform, 1));
  racks.push_back(make_rack_sim(Watts{6000.0}, PolicyKind::kUniform, 2));
  Fleet fleet{std::move(racks),
              fleet_config(Watts{1500.0}, GridShareMode::kDemandProportional)};
  fleet.pretrain();
  (void)fleet.run(Minutes{13.0 * 60.0});  // reach midday
  const auto shares = fleet.plan_grid_shares();
  EXPECT_GT(shares[0].value(), shares[1].value());
}

TEST(Fleet, PeakAllocationWithinBudget) {
  std::vector<RackSimulator> racks;
  for (int i = 0; i < 3; ++i) {
    racks.push_back(make_rack_sim(Watts{1000.0 + 800.0 * i},
                                  PolicyKind::kGreenHetero,
                                  static_cast<std::uint64_t>(i + 10)));
  }
  Fleet fleet{std::move(racks),
              fleet_config(Watts{2400.0}, GridShareMode::kDemandProportional)};
  fleet.pretrain();
  const FleetReport report = fleet.run(Minutes{24.0 * 60.0});
  EXPECT_LE(report.peak_grid_allocation.value(), 2400.0 + 1e-6);
  EXPECT_GT(report.total_work, 0.0);
  for (const RunReport& r : report.racks) {
    EXPECT_NEAR(r.ledger.conservation_error(), 0.0, 1e-6);
  }
}

TEST(Fleet, ProportionalBeatsStaticOnAsymmetricFleet) {
  // One sun-poor and one sun-rich rack share a tight grid budget: shifting
  // grid watts to the starved rack must increase total fleet work.
  auto build = [](GridShareMode mode) {
    std::vector<RackSimulator> racks;
    racks.push_back(make_rack_sim(Watts{300.0}, PolicyKind::kGreenHetero, 5));
    racks.push_back(make_rack_sim(Watts{5000.0}, PolicyKind::kGreenHetero, 6));
    Fleet fleet{std::move(racks), fleet_config(Watts{1200.0}, mode)};
    fleet.pretrain();
    return fleet.run(Minutes{24.0 * 60.0});
  };
  const FleetReport statically = build(GridShareMode::kStatic);
  const FleetReport proportional =
      build(GridShareMode::kDemandProportional);
  EXPECT_GT(proportional.total_work, statically.total_work);
}

TEST(Fleet, RackAccessorBounds) {
  std::vector<RackSimulator> racks;
  racks.push_back(make_rack_sim(Watts{2000.0}, PolicyKind::kUniform, 1));
  Fleet fleet{std::move(racks), fleet_config(Watts{1000.0})};
  EXPECT_NO_THROW((void)fleet.rack(0));
  EXPECT_THROW((void)fleet.rack(1), FleetError);
}

}  // namespace
}  // namespace greenhetero
