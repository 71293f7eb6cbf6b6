// Differential-oracle tests: the independent brute-force reference agrees
// with the production solver on random and real instances, the harness
// catches a deliberately broken solver, and the reference EPU accumulator
// matches EpuMeter.
#include "check/oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/epu.h"
#include "generators.h"
#include "util/rng.h"

namespace greenhetero {
namespace {

using check::OracleConfig;
using check::OracleReport;

GroupModel make_group(double a, double b, double c, double lo, double hi,
                      int count) {
  GroupModel g;
  g.fit = Quadratic{a, b, c};
  g.min_power = Watts{lo};
  g.max_power = Watts{hi};
  g.count = count;
  return g;
}

TEST(OraclePrimitives, ProjectionMatchesGroupModelSemantics) {
  const GroupModel g = make_group(-0.01, 6.0, -80.0, 50.0, 150.0, 4);
  // Off below the operating floor.
  EXPECT_DOUBLE_EQ(check::oracle_perf_per_server(g, 49.9), 0.0);
  // Clamped above the ceiling.
  EXPECT_DOUBLE_EQ(check::oracle_perf_per_server(g, 500.0),
                   check::oracle_perf_per_server(g, 150.0));
  // Agrees with the production projection across the range.
  for (double p = 0.0; p <= 200.0; p += 3.7) {
    EXPECT_NEAR(check::oracle_perf_per_server(g, p), g.perf_at(Watts{p}),
                1e-9)
        << "p=" << p;
  }
}

TEST(OraclePrimitives, BruteForceFindsTheObviousOptimum) {
  // One group: everything useful goes to it (capped at saturation).
  const std::vector<GroupModel> one{make_group(-0.01, 6.0, -80.0, 50.0,
                                               150.0, 2)};
  const check::OracleSolution s =
      check::oracle_solve(one, Watts{400.0}, 0.01);
  EXPECT_GT(s.perf, 0.0);
  EXPECT_NEAR(s.perf,
              check::oracle_objective(one, s.ratios, Watts{400.0}), 1e-9);
  // The production solver cannot beat the true optimum by more than its
  // refinement tolerance — and must not fall below the grid lower bound.
  const Allocation fast = Solver::solve(one, Watts{400.0});
  EXPECT_GE(fast.predicted_perf, s.perf - 1e-6);
}

TEST(OraclePrimitives, TabulatedSweepMatchesDirectEvaluationBitwise) {
  // oracle_solve adds tabulated per-group terms down its recursion; the
  // plain sweep below evaluates oracle_objective at every grid point.  The
  // best point and its objective must agree bit for bit.
  Rng rng(0x0AC1E);
  for (int instance = 0; instance < 200; ++instance) {
    SCOPED_TRACE("instance " + std::to_string(instance));
    const std::vector<GroupModel> groups = check::random_group_models(rng, 4);
    const Watts supply = check::random_supply(rng);
    const double granularity = instance % 2 == 0 ? 0.05 : 0.1;
    const int steps = static_cast<int>(std::lround(1.0 / granularity));
    std::vector<double> current(groups.size(), 0.0);
    check::OracleSolution naive;
    naive.ratios = current;
    naive.perf = check::oracle_objective(groups, current, supply);
    const auto sweep = [&](auto&& self, std::size_t index,
                           int remaining) -> void {
      for (int k = 0; k <= remaining; ++k) {
        current[index] = k * (1.0 / steps);
        if (index + 1 < groups.size()) {
          self(self, index + 1, remaining - k);
          continue;
        }
        const double perf = check::oracle_objective(groups, current, supply);
        if (perf > naive.perf) {
          naive.perf = perf;
          naive.ratios = current;
        }
      }
    };
    sweep(sweep, 0, steps);
    const check::OracleSolution fast =
        check::oracle_solve(groups, supply, granularity);
    EXPECT_EQ(std::memcmp(&fast.perf, &naive.perf, sizeof(double)), 0)
        << fast.perf << " vs " << naive.perf;
    EXPECT_EQ(fast.ratios, naive.ratios);
  }
}

TEST(OracleHarness, CleanOnRandomInstancesAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const OracleReport report = check::run_oracle(seed, 50);
    EXPECT_EQ(report.runs, 50);
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": "
        << report.disagreements.front().describe();
  }
}

TEST(OracleHarness, AnalyticBackendExactOnManyRandomInstances) {
  // Acceptance gate for the closed-form N-group solver: 1000 randomized
  // instances with group counts up to 5, degenerate fits (near-linear,
  // convex, idle~peak) included.  Checks (b) and (c) inside run_oracle hold
  // Solver::solve to near machine precision against the oracle's
  // independent evaluation of its ratios and to dominance over the
  // brute-force grid optimum.
  OracleConfig config;
  config.max_groups = 5;
  const OracleReport report = check::run_oracle(20260809, 1000, config);
  EXPECT_EQ(report.runs, 1000);
  EXPECT_TRUE(report.ok()) << report.disagreements.front().describe();
}

TEST(OracleHarness, CleanOnRealFittedCurves) {
  // Models fitted from the catalog's ground-truth curves (via a perfect
  // training database) — the exact instances the controller hands the
  // solver at runtime.
  const Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  const std::vector<GroupModel> groups = testgen::real_group_models(rack);
  ASSERT_GE(groups.size(), 2u);
  for (double supply : {300.0, 700.0, 1200.0, 2200.0}) {
    const Allocation fast = Solver::solve(groups, Watts{supply});
    const check::OracleSolution ref =
        check::oracle_solve(groups, Watts{supply}, 0.01);
    EXPECT_GE(fast.predicted_perf,
              ref.perf - std::max(1.0, 0.02 * ref.perf))
        << "supply=" << supply;
    EXPECT_NEAR(fast.predicted_perf,
                check::oracle_objective(groups, fast.ratios, Watts{supply}),
                std::max(1.0, 0.02 * std::fabs(fast.predicted_perf)))
        << "supply=" << supply;
  }
}

TEST(OracleHarness, DegenerateFitsAreExercised) {
  // The generator must produce the degenerate shapes the issue calls out:
  // near-zero curvature, inverted (convex) curvature, and narrow idle~peak
  // ranges.  Statistical over 200 draws — the shares are 1/10 each.
  Rng rng(123);
  int near_linear = 0, convex = 0, narrow = 0;
  for (int i = 0; i < 200; ++i) {
    for (const GroupModel& g : check::random_group_models(rng)) {
      if (std::fabs(g.fit.a) < 1e-6) ++near_linear;
      if (g.fit.a > 0.0) ++convex;
      if ((g.max_power - g.min_power).value() < 5.0) ++narrow;
    }
  }
  EXPECT_GT(near_linear, 0);
  EXPECT_GT(convex, 0);
  EXPECT_GT(narrow, 0);
}

TEST(OracleHarness, CatchesAPlantedGreedySolver) {
  // A broken "solver" that dumps the whole budget on group 0 regardless of
  // curvature.  It is structurally valid (ratios on the simplex, finite
  // perf) so only the differential comparison can catch it.
  const check::SolveFn greedy = [](std::span<const GroupModel> groups,
                                   Watts supply) {
    Allocation a;
    a.ratios.assign(groups.size(), 0.0);
    a.ratios[0] = 1.0;
    a.predicted_perf = check::oracle_objective(groups, a.ratios, supply);
    return a;
  };
  const OracleReport report = check::run_oracle(5, 40, OracleConfig{}, greedy);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.disagreements.empty());
  const check::OracleDisagreement& d = report.disagreements.front();
  EXPECT_LT(d.fast_perf, d.reference_perf);
  EXPECT_FALSE(d.describe().empty());
  // The repro payload keeps the full instance.
  EXPECT_FALSE(d.groups.empty());
  EXPECT_GT(d.supply_w, 0.0);
}

TEST(OracleHarness, CatchesALyingSolver) {
  // Correct ratios, inflated claimed objective: the self-consistency check
  // (claimed perf vs the oracle's evaluation of the ratios) must fire.
  const check::SolveFn liar = [](std::span<const GroupModel> groups,
                                 Watts supply) {
    Allocation a = Solver::solve(groups, supply);
    a.predicted_perf = a.predicted_perf * 2.0 + 100.0;
    return a;
  };
  const OracleReport report = check::run_oracle(5, 20, OracleConfig{}, liar);
  EXPECT_FALSE(report.ok());
}

TEST(ReferenceEpu, MatchesEpuMeterOnRandomSequences) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    EpuMeter meter;
    check::ReferenceEpu reference;
    for (int i = 0; i < 100; ++i) {
      const Watts supply{rng.uniform(0.0, 3000.0)};
      const Watts useful{supply.value() * rng.uniform(0.0, 1.2)};
      const Minutes dt{rng.uniform(0.1, 10.0)};
      meter.record(supply, useful, dt);
      reference.record(supply, useful, dt);
    }
    EXPECT_NEAR(meter.epu(), reference.epu(), 1e-9);
    EXPECT_GE(reference.epu(), 0.0);
    EXPECT_LE(reference.epu(), 1.0);
  }
}

TEST(ReferenceEpu, EmptyAndZeroSupplyAreWellDefined) {
  check::ReferenceEpu epu;
  EXPECT_DOUBLE_EQ(epu.epu(), 0.0);
  epu.record(Watts{0.0}, Watts{0.0}, Minutes{15.0});
  EXPECT_DOUBLE_EQ(epu.epu(), 0.0);
}

}  // namespace
}  // namespace greenhetero
