// Extended property sweeps over the substrate extensions: wind traces,
// battery chemistries, fleets and colocation —
// parameterised invariants complementing property_test.cpp's core sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/shard.h"
#include "generators.h"
#include "power/battery.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "trace/statistics.h"
#include "trace/wind.h"

namespace greenhetero {
namespace {

// ---------------------------------------------------------------------------
// Wind traces stay physical for every seed.

class WindSeedProperty : public ::testing::TestWithParam<int> {};

TEST_P(WindSeedProperty, BoundedPersistentAndPlausible) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const WindModel model;
  const PowerTrace trace = generate_wind_trace(model, 5, seed);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_GE(trace.sample(i).value(), 0.0);
    EXPECT_LE(trace.sample(i).value(), model.rated_power.value() + 1e-9);
  }
  const TraceStatistics stats = analyze_trace(trace);
  EXPECT_GT(stats.load_factor, 0.05);
  EXPECT_LT(stats.load_factor, 0.8);
  EXPECT_GT(stats.autocorrelation, 0.3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindSeedProperty, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Battery invariants across chemistry and DoD.

class BatteryDodProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BatteryDodProperty, DrainRespectsFloorAndRates) {
  const auto [chem, dod_step] = GetParam();
  BatterySpec spec = chem == 0 ? lead_acid_spec(WattHours{12000.0})
                               : li_ion_spec(WattHours{12000.0});
  spec.depth_of_discharge = 0.2 + 0.2 * dod_step;
  Battery battery{spec};

  // Drain in hourly steps at whatever the battery offers.
  for (int hour = 0; hour < 48; ++hour) {
    const Watts offered = battery.max_discharge(Minutes{60.0});
    EXPECT_LE(offered.value(), spec.max_discharge_power.value() + 1e-9);
    if (offered.value() <= 0.0) break;
    battery.discharge(offered, Minutes{60.0});
    EXPECT_GE(battery.stored().value(), spec.floor_energy().value() - 1e-6);
  }
  EXPECT_TRUE(battery.at_floor());
  // Delivered energy never exceeds the usable window (Peukert can only
  // shrink it).
  EXPECT_LE(battery.total_discharged().value(),
            spec.capacity.value() * spec.depth_of_discharge + 1e-6);

  // Recharge completes and lands at the (possibly faded) capacity.
  for (int hour = 0; hour < 72 && !battery.full(); ++hour) {
    const Watts acceptance = battery.max_charge(Minutes{60.0});
    if (acceptance.value() <= 0.0) break;
    battery.charge(acceptance, Minutes{60.0});
  }
  EXPECT_TRUE(battery.full());
  EXPECT_LE(battery.stored().value(), battery.effective_capacity().value() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(ChemistryAndDod, BatteryDodProperty,
                         ::testing::Combine(::testing::Range(0, 2),
                                            ::testing::Range(0, 4)));

// ---------------------------------------------------------------------------
// Every CPU pairing of Table II runs the full pipeline without violating
// conservation (coverage over rack shapes beyond the Table IV set).

class RackPairProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RackPairProperty, PipelineRunsAndConserves) {
  const auto [a, b] = GetParam();
  const ServerSpec& spec_a = all_server_specs()[a];
  const ServerSpec& spec_b = all_server_specs()[b];

  Rack rack{{{spec_a.model, 3}, {spec_b.model, 3}}, Workload::kSpecJbb};
  const Watts budget = rack.peak_demand() * 0.5;
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = static_cast<std::uint64_t>(a * 7 + b);
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(budget, Minutes{300.0}),
                    std::move(cfg)};
  sim.pretrain();
  const RunReport report = sim.run(Minutes{120.0});
  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);
  EXPECT_GE(report.overall_epu, 0.0);
  EXPECT_LE(report.overall_epu, 1.0);
  EXPECT_GT(report.total_work, 0.0);
}

/// Every ordered (a < b) pair of CPU server indices.
std::vector<std::tuple<int, int>> ordered_cpu_pairs() {
  std::vector<std::tuple<int, int>> pairs;
  for (int a = 0; a < kServerModelCount; ++a) {
    for (int b = a + 1; b < kServerModelCount; ++b) {
      if (!all_server_specs()[a].is_gpu && !all_server_specs()[b].is_gpu) {
        pairs.emplace_back(a, b);
      }
    }
  }
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(AllCpuPairs, RackPairProperty,
                         ::testing::ValuesIn(ordered_cpu_pairs()));

// ---------------------------------------------------------------------------
// Fleets of any size conserve the shared grid budget each epoch.

class FleetSizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(FleetSizeProperty, SharesRespectTotalBudget) {
  const int racks = GetParam();
  std::vector<RackSimulator> sims;
  for (int i = 0; i < racks; ++i) {
    testgen::SolarSimParams params;
    params.controller_seed = static_cast<std::uint64_t>(i);
    params.solar_seed = static_cast<std::uint64_t>(i);
    params.solar_capacity = Watts{1200.0 + 500.0 * i};
    sims.push_back(testgen::make_solar_sim(params));
  }
  const Watts total{700.0 * racks};
  FleetConfig cfg;
  cfg.total_grid_budget = total;
  cfg.mode = GridShareMode::kDemandProportional;
  Fleet fleet{std::move(sims), cfg};
  const FleetReport report = fleet.run(Minutes{6.0 * 60.0});
  EXPECT_LE(report.peak_grid_allocation.value(), total.value() + 1e-6);
  ASSERT_EQ(report.racks.size(), static_cast<std::size_t>(racks));
  for (const RunReport& r : report.racks) {
    EXPECT_NEAR(r.ledger.conservation_error(), 0.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FleetSizeProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Colocation sweeps: every interactive x batch pairing runs end to end.

class ColocationProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ColocationProperty, MixedWorkloadPipeline) {
  constexpr Workload kInteractive[] = {
      Workload::kSpecJbb, Workload::kWebSearch, Workload::kMemcached};
  constexpr Workload kBatch[] = {Workload::kStreamcluster, Workload::kVips,
                                 Workload::kCanneal};
  const auto [i, b] = GetParam();
  Rack rack{{{ServerModel::kXeonE5_2620, 4}, {ServerModel::kCoreI5_4460, 4}},
            {kBatch[b], kInteractive[i]}};
  const Watts budget = rack.peak_demand() * 0.55;
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = static_cast<std::uint64_t>(10 * i + b);
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(budget, Minutes{300.0}),
                    std::move(cfg)};
  sim.pretrain();
  const RunReport report = sim.run(Minutes{120.0});
  EXPECT_GT(report.total_work, 0.0);
  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Pairs, ColocationProperty,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 3)));

// ---------------------------------------------------------------------------
// The per-epoch grid division on degenerate input: for every (racks, shards)
// fleet geometry, divide_grid_budget collapses to the hoisted equal split,
// and a sharded fleet whose racks all have a green surplus hands every rack
// that same share.

class RebalancerProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RebalancerProperty, DegenerateDeficitsFallBackToEqualSplit) {
  const auto [racks, shards] = GetParam();
  const Watts budget{1000.0};
  const double equal_share = budget.value() / racks;
  const std::vector<std::vector<double>> degenerate = {
      std::vector<double>(racks, 0.0),
      [&] {
        std::vector<double> d(racks, 50.0);
        d[racks / 2] = std::numeric_limits<double>::quiet_NaN();
        return d;
      }(),
      [&] {
        std::vector<double> d(racks, 50.0);
        d.back() = std::numeric_limits<double>::infinity();
        return d;
      }()};
  for (const std::vector<double>& deficits : degenerate) {
    // Every rack sees the identical hoisted share regardless of its own
    // (possibly poisoned) deficit.
    for (const Watts share : divide_grid_budget(budget, deficits)) {
      EXPECT_EQ(share.value(), equal_share);
    }
  }

  // A full paper battery covers a rack's peak demand, so every deficit is
  // negative at the first epoch: the sharded deficit pass must land on the
  // same fallback.
  std::vector<RackSimulator> sims;
  for (int i = 0; i < racks; ++i) {
    testgen::SolarSimParams params;
    params.controller_seed = static_cast<std::uint64_t>(i);
    params.solar_seed = static_cast<std::uint64_t>(i);
    sims.push_back(testgen::make_solar_sim(params));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = budget;
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.shards = static_cast<std::size_t>(shards);
  cfg.threads = 2;
  Fleet fleet{std::move(sims), cfg};
  (void)fleet.run(Minutes{15.0});
  for (int i = 0; i < racks; ++i) {
    EXPECT_EQ(fleet.rack(static_cast<std::size_t>(i))
                  .plant()
                  .grid_budget()
                  .value(),
              equal_share)
        << "rack " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, RebalancerProperty,
                         ::testing::Combine(::testing::Values(1, 2, 5, 16),
                                            ::testing::Values(1, 2, 3, 7)));

}  // namespace
}  // namespace greenhetero
