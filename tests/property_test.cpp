// Cross-module property tests: invariants that must hold over parameter
// sweeps (seeds, workloads, supply levels), exercised with parameterised
// gtest suites.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/policies.h"
#include "generators.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"

namespace greenhetero {
namespace {

// ---------------------------------------------------------------------------
// Ground-truth curve invariants across the whole catalog.

class CatalogCurveProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CatalogCurveProperty, MonotoneAndBounded) {
  const auto [server_idx, workload_idx] = GetParam();
  const ServerSpec& server = all_server_specs()[server_idx];
  const WorkloadSpec& workload = all_workload_specs()[workload_idx];
  const PerfCurve curve = default_catalog().curve(server.model, workload.id);
  double prev = -1.0;
  for (double p = 0.0; p <= server.peak_power.value() + 50.0; p += 2.0) {
    const double t = curve.throughput_at(Watts{p});
    EXPECT_GE(t, prev - 1e-9);
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, curve.peak_throughput() + 1e-9);
    prev = t;
  }
}

/// Every (server, workload) index pair the catalog can run.
std::vector<std::tuple<int, int>> runnable_pairs() {
  std::vector<std::tuple<int, int>> pairs;
  for (int s = 0; s < kServerModelCount; ++s) {
    for (int w = 0; w < kWorkloadCount; ++w) {
      if (default_catalog().runnable(all_server_specs()[s].model,
                                     all_workload_specs()[w].id)) {
        pairs.emplace_back(s, w);
      }
    }
  }
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, CatalogCurveProperty,
                         ::testing::ValuesIn(runnable_pairs()));

// ---------------------------------------------------------------------------
// Policy invariants across workloads and budgets.

class PolicyInvariantProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PolicyInvariantProperty, RatiosValidAndGreenHeteroDominatesUniform) {
  const auto [workload_idx, budget_step] = GetParam();
  const Workload w = figure9_workloads()[workload_idx];
  Rack rack{default_runtime_rack(), w};
  const Watts budget{500.0 + 200.0 * budget_step};

  const PerfPowerDatabase db = testgen::perfect_database(rack);

  const auto true_perf = [&](const Allocation& a) {
    double total = 0.0;
    for (std::size_t g = 0; g < rack.group_count(); ++g) {
      const double count = rack.group(g).count;
      const Watts per_server{a.ratios[g] * budget.value() / count};
      if (per_server.value() >= rack.group_curve(g).idle_power().value()) {
        total += count * rack.group_curve(g).throughput_at(per_server);
      }
    }
    return total;
  };

  const Allocation uniform =
      make_policy(PolicyKind::kUniform)->allocate(rack, db, budget);
  for (PolicyKind kind :
       {PolicyKind::kManual, PolicyKind::kGreenHeteroP,
        PolicyKind::kGreenHeteroA, PolicyKind::kGreenHetero}) {
    const Allocation a = make_policy(kind)->allocate(rack, db, budget);
    ASSERT_EQ(a.ratios.size(), rack.group_count());
    for (double r : a.ratios) EXPECT_GE(r, -1e-9);
    EXPECT_LE(a.ratio_sum(), 1.0 + 1e-6) << to_string(kind);
  }
  // With a noise-free training database the solver must (near-)dominate
  // Uniform on ground truth.  The small slack absorbs the bias of fitting a
  // quadratic to strongly concave curves (e.g. Memcached's gamma = 0.4) —
  // the same projection error the paper's online updates exist to shrink.
  const Allocation gh =
      make_policy(PolicyKind::kGreenHetero)->allocate(rack, db, budget);
  EXPECT_GE(true_perf(gh), true_perf(uniform) * 0.98)
      << workload_spec(w).name << " @ " << budget.value() << "W";
}

INSTANTIATE_TEST_SUITE_P(WorkloadsAndBudgets, PolicyInvariantProperty,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Range(0, 5)));

// ---------------------------------------------------------------------------
// Whole-simulation invariants across seeds and policies.

class SimulationInvariantProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SimulationInvariantProperty, ConservationEpuAndSocBounds) {
  const auto [seed, policy_idx] = GetParam();
  testgen::SolarSimParams params;
  params.policy = kAllPolicies[policy_idx];
  params.profiling_noise = 0.03;
  params.controller_seed = static_cast<std::uint64_t>(seed * 977 + 13);
  params.generate_demand = true;
  params.demand_seed = static_cast<std::uint64_t>(seed);
  params.solar_seed = static_cast<std::uint64_t>(seed + 100);
  params.grid.budget = Watts{1000.0};
  RackSimulator sim = testgen::make_solar_sim(params);
  sim.pretrain();
  const RunReport report = sim.run(Minutes{24.0 * 60.0});

  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-5);
  EXPECT_GE(report.overall_epu, 0.0);
  EXPECT_LE(report.overall_epu, 1.0);
  const double floor_soc = 1.0 - paper_battery_spec().depth_of_discharge;
  for (const auto& e : report.epochs) {
    EXPECT_GE(e.battery_soc, floor_soc - 1e-6);
    EXPECT_LE(e.battery_soc, 1.0 + 1e-9);
    EXPECT_GE(e.epu, 0.0);
    EXPECT_LE(e.epu, 1.0);
    EXPECT_GE(e.throughput, 0.0);
  }
  // Load energy is always covered by the three sources (no free energy).
  EXPECT_NEAR(report.ledger.load_energy().value(),
              (report.ledger.renewable_to_load() +
               report.ledger.battery_to_load() +
               report.ledger.grid_to_load())
                  .value(),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndPolicies, SimulationInvariantProperty,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 5)));

// ---------------------------------------------------------------------------
// EPU of the fixed-budget experiment is consistent with its definition.

class FixedBudgetEpuProperty : public ::testing::TestWithParam<int> {};

TEST_P(FixedBudgetEpuProperty, UniformWastesWhenXeonsStarve) {
  const double budget_w = 500.0 + 100.0 * GetParam();
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  const double xeon_floor =
      rack.group_curve(0).idle_power().value() * 5.0;
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kUniform;
  cfg.controller.seed = 3;
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{budget_w}, Minutes{200.0}),
                    std::move(cfg)};
  const RunReport report = sim.run(Minutes{120.0});
  if (budget_w / 2.0 < xeon_floor) {
    // Half the budget goes to Xeons that sleep: EPU must be well below 1.
    EXPECT_LT(report.overall_epu, 0.85);
  }
  EXPECT_GE(report.overall_epu, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Budgets, FixedBudgetEpuProperty,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace greenhetero
