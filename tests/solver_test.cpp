#include "core/solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "check/oracle.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace greenhetero {
namespace {

GroupModel concave_group(double a, double b, double c, Watts lo, Watts hi,
                         int count) {
  return GroupModel{Quadratic{a, b, c}, lo, hi, count};
}

// A pair resembling Xeon (wide range, high idle) vs i5 (narrow, low idle).
std::vector<GroupModel> xeon_i5_pair() {
  return {
      concave_group(-0.015, 7.0, -250.0, Watts{88.0}, Watts{178.0}, 5),
      concave_group(-0.030, 9.0, -150.0, Watts{47.0}, Watts{96.0}, 5),
  };
}

TEST(GroupModel, ClampedPerf) {
  const GroupModel g = concave_group(-0.01, 4.0, 0.0, Watts{50.0},
                                     Watts{150.0}, 1);
  EXPECT_DOUBLE_EQ(g.perf_at(Watts{40.0}), 0.0);
  EXPECT_NEAR(g.perf_at(Watts{100.0}), -0.01 * 1e4 + 400.0, 1e-9);
  EXPECT_NEAR(g.perf_at(Watts{999.0}), g.perf_at(Watts{150.0}), 1e-9);
}

TEST(GroupModel, SaturationAtVertex) {
  // Vertex at 100 W inside [50, 150]: no point allocating beyond it.
  const GroupModel g = concave_group(-0.02, 4.0, 0.0, Watts{50.0},
                                     Watts{150.0}, 1);
  EXPECT_NEAR(g.saturation_power().value(), 100.0, 1e-9);
  // Vertex outside the range: saturation is max_power.
  const GroupModel h = concave_group(-0.001, 4.0, 0.0, Watts{50.0},
                                     Watts{150.0}, 1);
  EXPECT_DOUBLE_EQ(h.saturation_power().value(), 150.0);
}

TEST(Solver, ValidatesInputs) {
  const std::vector<GroupModel> none;
  EXPECT_THROW((void)Solver::solve(none, Watts{100.0}), SolverError);
  const std::vector<GroupModel> one = {concave_group(
      -0.01, 4.0, 0.0, Watts{50.0}, Watts{150.0}, 1)};
  EXPECT_THROW((void)Solver::solve(one, Watts{0.0}), SolverError);
  std::vector<GroupModel> bad = one;
  bad[0].count = 0;
  EXPECT_THROW((void)Solver::solve(bad, Watts{100.0}), SolverError);
  bad = one;
  bad[0].max_power = Watts{10.0};
  EXPECT_THROW((void)Solver::solve(bad, Watts{100.0}), SolverError);
}

TEST(Solver, SingleGroupCapsAtSaturation) {
  const std::vector<GroupModel> groups = {
      concave_group(-0.001, 4.0, 0.0, Watts{50.0}, Watts{150.0}, 2)};
  const Allocation a = Solver::solve(groups, Watts{1000.0});
  // 2 servers x 150 W = 300 W of 1000 -> ratio 0.3.
  EXPECT_NEAR(a.ratios[0], 0.3, 1e-6);
}

TEST(Solver, RatiosAreValid) {
  const auto groups = xeon_i5_pair();
  for (double supply : {300.0, 500.0, 700.0, 900.0, 1200.0, 2000.0}) {
    const Allocation a = Solver::solve(groups, Watts{supply});
    ASSERT_EQ(a.ratios.size(), 2u);
    EXPECT_GE(a.ratios[0], -1e-9);
    EXPECT_GE(a.ratios[1], -1e-9);
    EXPECT_LE(a.ratio_sum(), 1.0 + 1e-6) << "supply " << supply;
  }
}

TEST(Solver, MatchesFineBruteForce) {
  const auto groups = xeon_i5_pair();
  for (double supply : {400.0, 700.0, 1000.0, 1400.0}) {
    const Allocation fast = Solver::solve(groups, Watts{supply});
    const check::OracleSolution brute =
        check::oracle_solve(groups, Watts{supply}, 0.001);
    EXPECT_GE(fast.predicted_perf, brute.perf * 0.999)
        << "supply " << supply;
  }
}

TEST(Solver, BeatsOrMatchesUniformSplit) {
  const auto groups = xeon_i5_pair();
  for (double supply : {500.0, 800.0, 1100.0}) {
    const Allocation a = Solver::solve(groups, Watts{supply});
    const std::vector<double> uniform = {0.5, 0.5};
    EXPECT_GE(a.predicted_perf,
              Solver::evaluate(groups, uniform, Watts{supply}) - 1e-6);
  }
}

TEST(Solver, StarvesInefficientGroupUnderScarcity) {
  // With only 500 W, powering the 5 high-idle Xeons (88 W floor each) would
  // leave nothing useful; all power should go to the i5 group.
  const auto groups = xeon_i5_pair();
  const Allocation a = Solver::solve(groups, Watts{500.0});
  EXPECT_GT(a.ratios[1], 0.85);
}

TEST(Solver, UsesEverythingUnderAbundance) {
  const auto groups = xeon_i5_pair();
  // Supply beyond combined saturation: both groups saturate.
  const Allocation a = Solver::solve(groups, Watts{5000.0});
  const Watts sat0 = groups[0].saturation_power();
  const Watts sat1 = groups[1].saturation_power();
  EXPECT_NEAR(a.ratios[0] * 5000.0 / 5.0, sat0.value(), 2.0);
  EXPECT_NEAR(a.ratios[1] * 5000.0 / 5.0, sat1.value(), 2.0);
}

TEST(Solver, ThreeGroups) {
  std::vector<GroupModel> groups = xeon_i5_pair();
  groups.push_back(
      concave_group(-0.05, 7.0, -100.0, Watts{58.0}, Watts{79.0}, 5));
  const Allocation a = Solver::solve(groups, Watts{900.0});
  ASSERT_EQ(a.ratios.size(), 3u);
  EXPECT_LE(a.ratio_sum(), 1.0 + 1e-6);
  const check::OracleSolution brute =
      check::oracle_solve(groups, Watts{900.0}, 0.01);
  EXPECT_GE(a.predicted_perf, brute.perf * 0.995);
}

TEST(Solver, TenPercentManualGridIsCoarser) {
  const auto groups = xeon_i5_pair();
  const check::OracleSolution coarse =
      check::oracle_solve(groups, Watts{700.0}, 0.10);
  const Allocation fine = Solver::solve(groups, Watts{700.0});
  EXPECT_LE(coarse.perf, fine.predicted_perf + 1e-6);
}

TEST(SolverAnalytic, MatchesGridOnInteriorProblem) {
  // Generous supply so both groups sit in the interior of their ranges.
  const std::vector<GroupModel> groups = {
      concave_group(-0.01, 6.0, -100.0, Watts{20.0}, Watts{260.0}, 2),
      concave_group(-0.02, 8.0, -120.0, Watts{20.0}, Watts{190.0}, 3),
  };
  const Allocation analytic = Solver::solve(groups, Watts{700.0});
  const check::OracleSolution brute =
      check::oracle_solve(groups, Watts{700.0}, 0.001);
  EXPECT_NEAR(analytic.predicted_perf, brute.perf, brute.perf * 0.002);
}

TEST(Solver, EvaluateChecksSizes) {
  const auto groups = xeon_i5_pair();
  const std::vector<double> wrong = {1.0};
  EXPECT_THROW((void)Solver::evaluate(groups, wrong, Watts{100.0}),
               SolverError);
}

std::vector<GroupModel> five_groups() {
  // All five CPU types of Table II, roughly SPECjbb-shaped fits.
  return {
      concave_group(-0.015, 7.0, -250.0, Watts{88.0}, Watts{178.0}, 5),
      concave_group(-0.030, 9.0, -150.0, Watts{47.0}, Watts{96.0}, 5),
      concave_group(-0.020, 6.0, -120.0, Watts{66.0}, Watts{112.0}, 5),
      concave_group(-0.050, 7.0, -100.0, Watts{58.0}, Watts{79.0}, 5),
      concave_group(-0.040, 11.0, -140.0, Watts{39.0}, Watts{88.0}, 5),
  };
}

TEST(SolverN, FiveGroupsNearBruteForce) {
  const auto groups = five_groups();
  for (double supply : {1200.0, 2000.0, 3000.0}) {
    const Allocation fast = Solver::solve(groups, Watts{supply});
    const check::OracleSolution brute =
        check::oracle_solve(groups, Watts{supply}, 0.05);
    EXPECT_LE(fast.ratio_sum(), 1.0 + 1e-6);
    for (double r : fast.ratios) EXPECT_GE(r, -1e-9);
    EXPECT_GE(fast.predicted_perf, brute.perf * 0.97)
        << "supply " << supply;
  }
}

TEST(SolverN, BeatsUniformOnFiveGroups) {
  const auto groups = five_groups();
  const Watts supply{1500.0};
  const std::vector<double> uniform(5, 0.2);
  const Allocation a = Solver::solve(groups, supply);
  EXPECT_GE(a.predicted_perf,
            Solver::evaluate(groups, uniform, supply) - 1e-6);
}

TEST(SolverN, ScarcityActivatesOnlyAffordableGroups) {
  const auto groups = five_groups();
  // 450 W cannot wake the 5x88 W-floor Xeons; the solver must not strand
  // power on sleeping groups.
  const Allocation a = Solver::solve(groups, Watts{450.0});
  EXPECT_GT(a.predicted_perf, 0.0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (a.ratios[g] < 1e-9) continue;
    const double per_server =
        a.ratios[g] * 450.0 / static_cast<double>(groups[g].count);
    EXPECT_GE(per_server, groups[g].min_power.value() - 1e-6)
        << "group " << g << " funded below its floor";
  }
}

TEST(SolverN, ValidatesInputs) {
  const std::vector<GroupModel> none;
  EXPECT_THROW((void)Solver::solve(none, Watts{100.0}), SolverError);
  auto groups = five_groups();
  EXPECT_THROW((void)Solver::solve(groups, Watts{0.0}), SolverError);
  groups[2].count = 0;
  EXPECT_THROW((void)Solver::solve(groups, Watts{1000.0}), SolverError);
}

TEST(SolverN, FuzzerLostPerfInstanceStaysOptimal) {
  // Found by `greenhetero fuzz --solver on`: greedy water-filling funded
  // the two small groups first and could then never afford the six-server
  // group's all-or-nothing floor (532 W of the 543 W supply) — the true
  // optimum — losing ~10% of the objective.  Pairwise exchange cannot
  // repair it either: no two-group pool is large enough to stage the
  // three-way move.  The solver must stay at the brute-force optimum here.
  const std::vector<GroupModel> groups = {
      concave_group(-0.00982267, 13.5428, 17.8723, Watts{88.6642},
                    Watts{162.152}, 6),
      concave_group(-0.00709316, 10.7037, -183.223, Watts{53.7528},
                    Watts{54.8206}, 1),
      concave_group(-0.0450528, 19.2205, -6.3831, Watts{118.061},
                    Watts{198.162}, 2),
      concave_group(-0.0380131, 18.4765, 5.14563, Watts{110.511},
                    Watts{171.745}, 1),
  };
  const Watts supply{542.948};
  const Allocation a = Solver::solve(groups, supply);
  const check::OracleSolution ref = check::oracle_solve(groups, supply, 0.02);
  // The greedy path returned ~6253 against a brute-force 6978; the exact
  // backend must not fall below the grid lower bound at all.
  EXPECT_GE(a.predicted_perf, ref.perf - 1e-6);
}

TEST(SolverAnalytic, NearLinearPairMatchesOracle) {
  // Both curvatures are far below the water-filling threshold: an interior
  // stationary point would divide by 2a and overflow, so both groups take
  // the endpoint-enumeration path and the solve must still reach the
  // oracle's brute-force optimum with a self-consistent objective.
  const std::vector<GroupModel> groups = {
      concave_group(-1e-10, 5.0, -50.0, Watts{40.0}, Watts{160.0}, 3),
      concave_group(-3e-10, 6.0, -60.0, Watts{50.0}, Watts{170.0}, 2),
  };
  const Watts supply{700.0};
  const Allocation fast = Solver::solve(groups, supply);
  const check::OracleSolution ref =
      check::oracle_solve(groups, supply, 0.005);
  EXPECT_GE(fast.predicted_perf, ref.perf - std::max(1.0, 0.005 * ref.perf));
  EXPECT_NEAR(fast.predicted_perf,
              check::oracle_objective(groups, fast.ratios, supply),
              std::max(1e-6, 1e-9 * std::fabs(fast.predicted_perf)));
}

TEST(SolverSubset, FloorBoundaryActivationsSurviveRounding) {
  // k * min_power re-divided by k can land one ULP below the idle floor
  // (49.3 * 3 / 3 < 49.3 in double), and perf_at's off-below-idle cliff
  // would zero a feasible activation; the per-count solve must still wake
  // k servers at exactly the floor.
  const GroupModel g =
      concave_group(-0.01, 5.0, -20.0, Watts{49.3}, Watts{150.0}, 3);
  const std::vector<GroupModel> one{g};
  const double per_floor = g.perf_at(g.min_power);
  ASSERT_GT(per_floor, 0.0);

  // k = 1 boundary: a budget of exactly one floor is a feasible activation.
  Allocation a = Solver::solve_subset(one, g.min_power);
  EXPECT_NEAR(a.predicted_perf, per_floor, 1e-9);
  EXPECT_EQ(a.active_counts[0], 1);

  // k = count boundary: the lossy budget (one ULP short of count floors)
  // must still activate all three servers — spreading beats concentrating
  // on this concave fit, so zeroing the k = 3 candidate loses real perf.
  const Watts lossy_budget{49.3 * 3.0};
  ASSERT_LT(lossy_budget.value() / 3.0, g.min_power.value());
  a = Solver::solve_subset(one, lossy_budget);
  EXPECT_NEAR(a.predicted_perf, 3.0 * per_floor, 1e-6);
  EXPECT_EQ(a.active_counts[0], 3);
}

TEST(SolverAnalyticN, MatchesFineBruteForceOnFixtures) {
  std::vector<GroupModel> three = xeon_i5_pair();
  three.push_back(
      concave_group(-0.05, 7.0, -100.0, Watts{58.0}, Watts{79.0}, 5));
  for (double supply : {500.0, 900.0, 1500.0, 2600.0}) {
    const Allocation a = Solver::solve(three, Watts{supply});
    const check::OracleSolution brute =
        check::oracle_solve(three, Watts{supply}, 0.01);
    EXPECT_LE(a.ratio_sum(), 1.0 + 1e-6);
    EXPECT_GE(a.predicted_perf, brute.perf - 1e-6)
        << "3 groups, supply " << supply;
  }
  const auto five = five_groups();
  for (double supply : {450.0, 1200.0, 2000.0, 3500.0}) {
    const Allocation a = Solver::solve(five, Watts{supply});
    const check::OracleSolution brute =
        check::oracle_solve(five, Watts{supply}, 0.05);
    EXPECT_LE(a.ratio_sum(), 1.0 + 1e-6);
    EXPECT_GE(a.predicted_perf, brute.perf - 1e-6)
        << "5 groups, supply " << supply;
    // The claimed objective is the solver's own evaluation of the ratios.
    EXPECT_NEAR(a.predicted_perf,
                Solver::evaluate(five, a.ratios, Watts{supply}),
                std::max(1e-6, 1e-9 * std::fabs(a.predicted_perf)))
        << "5 groups, supply " << supply;
  }
  // A convex narrow-range member next to a steep concave one, where the
  // full set cannot pay its floors.  The optimum runs groups 1 and 2 at
  // their peak power and leaves group 0 off, so its value equals that
  // mask's crude subset bound: a pruning test that compares the bound
  // against anything but an achieved incumbent can round the optimum away.
  const std::vector<GroupModel> narrow = {
      concave_group(-0.056473479348623484, 14.032303815114981,
                    -468.21167826934578, Watts{66.0},
                    Watts{107.40000000000001}, 5),
      concave_group(-25.111152122886786, 2167.6563311442446,
                    -45898.207874733474, Watts{39.0},
                    Watts{41.204999999999998}, 3),
      concave_group(0.95366555825760491, -59.979699828893615,
                    978.5147920847603, Watts{47.0}, Watts{49.204999999999998},
                    4),
  };
  const Watts narrow_supply{375.55037641425196};
  const Allocation a = Solver::solve(narrow, narrow_supply);
  const check::OracleSolution brute =
      check::oracle_solve(narrow, narrow_supply, 0.01);
  EXPECT_NEAR(brute.perf, 3699.807849, 1e-6);
  EXPECT_LE(a.ratio_sum(), 1.0 + 1e-6);
  EXPECT_GE(a.predicted_perf, brute.perf - 1e-6);
}

TEST(SolverAnalyticN, ValidatesInputs) {
  const std::vector<GroupModel> none;
  EXPECT_THROW((void)Solver::solve(none, Watts{100.0}),
               SolverError);
  const std::vector<GroupModel> wide(
      17, concave_group(-0.02, 8.0, -50.0, Watts{40.0}, Watts{120.0}, 2));
  EXPECT_THROW((void)Solver::solve(wide, Watts{1000.0}),
               SolverError);
  auto groups = five_groups();
  EXPECT_THROW((void)Solver::solve(groups, Watts{0.0}),
               SolverError);
  groups[1].count = 0;
  EXPECT_THROW((void)Solver::solve(groups, Watts{1000.0}),
               SolverError);
}

TEST(Solver, SurvivesConvexFitsFromNoise) {
  // Measurement noise can flip a fit convex (a > 0).  The solver must stay
  // valid (ratios in range) and still beat or match the uniform split on
  // its own model.
  const std::vector<GroupModel> groups = {
      concave_group(+0.005, 2.0, 10.0, Watts{88.0}, Watts{178.0}, 5),
      concave_group(-0.030, 9.0, -150.0, Watts{47.0}, Watts{96.0}, 5),
  };
  for (double supply : {500.0, 900.0, 1400.0}) {
    const Allocation a = Solver::solve(groups, Watts{supply});
    EXPECT_LE(a.ratio_sum(), 1.0 + 1e-6);
    for (double r : a.ratios) EXPECT_GE(r, -1e-9);
    const std::vector<double> uniform = {0.5, 0.5};
    EXPECT_GE(a.predicted_perf,
              Solver::evaluate(groups, uniform, Watts{supply}) - 1e-6);
  }
}

// Property sweep: on random concave instances the fast solver must be within
// 1% of a fine brute force.
class SolverPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverPropertyTest, NearOptimalOnRandomInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int group_count = rng.uniform_int(2, 3);
  std::vector<GroupModel> groups;
  for (int g = 0; g < group_count; ++g) {
    const double lo = rng.uniform(30.0, 90.0);
    const double hi = lo + rng.uniform(30.0, 120.0);
    const double a = -rng.uniform(0.001, 0.05);
    // Slope positive across the range so the curve is increasing there.
    const double b = rng.uniform(2.0, 12.0) - 2.0 * a * lo;
    const double c = rng.uniform(-200.0, 0.0);
    groups.push_back(concave_group(a, b, c, Watts{lo}, Watts{hi},
                                   rng.uniform_int(1, 6)));
  }
  const double supply = rng.uniform(200.0, 2500.0);
  const Allocation fast = Solver::solve(groups, Watts{supply});
  const check::OracleSolution brute = check::oracle_solve(
      groups, Watts{supply}, group_count == 2 ? 0.001 : 0.005);
  EXPECT_LE(fast.ratio_sum(), 1.0 + 1e-6);
  EXPECT_GE(fast.predicted_perf,
            brute.perf - std::max(1.0, brute.perf * 0.01))
      << "groups=" << group_count << " supply=" << supply;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverPropertyTest,
                         ::testing::Range(0, 40));

TEST(SolverSanity, PoisonedFitIsRejectedWithDiagnostics) {
  // A NaN-coefficient fit (a poisoned database record) yields a non-finite
  // Perf across the whole operating range.  Clamping such a group would
  // silently misallocate power, so the solver rejects the instance up front
  // and names the offending group and coefficients; callers that can degrade
  // (the controller) catch SolverError and fall back to a safe allocation.
  GroupModel poisoned;
  poisoned.fit = Quadratic{std::numeric_limits<double>::quiet_NaN(), 1.0, 0.0};
  poisoned.min_power = Watts{50.0};
  poisoned.max_power = Watts{150.0};
  poisoned.count = 4;

  try {
    (void)Solver::solve(std::span<const GroupModel>{&poisoned, 1},
                        Watts{400.0});
    FAIL() << "expected SolverError for a NaN fit";
  } catch (const SolverError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("group 0"), std::string::npos) << what;
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
    EXPECT_NE(what.find("a=nan"), std::string::npos) << what;
  }
}

TEST(SolverSanity, OverflowAtPeakOnlyIsRejected) {
  // Regression: a fit that is finite at idle but overflows to +inf at peak
  // used to slip past a NaN-only coefficient check.  Endpoint evaluation
  // catches it because a finite quadratic on [lo, hi] must be finite at
  // both ends.
  GroupModel overflowing;
  overflowing.fit = Quadratic{1e305, 0.0, 0.0};  // finite at 1 W, inf at 150 W
  overflowing.min_power = Watts{1.0};
  overflowing.max_power = Watts{150.0};
  overflowing.count = 2;
  ASSERT_TRUE(std::isfinite(overflowing.fit(overflowing.min_power.value())));
  ASSERT_FALSE(std::isfinite(overflowing.fit(overflowing.max_power.value())));

  GroupModel healthy;
  healthy.fit = Quadratic{-0.01, 5.0, -50.0};
  healthy.min_power = Watts{40.0};
  healthy.max_power = Watts{160.0};
  healthy.count = 4;

  const std::vector<GroupModel> groups{healthy, overflowing};
  try {
    (void)Solver::solve(groups, Watts{600.0});
    FAIL() << "expected SolverError for an overflowing fit";
  } catch (const SolverError& e) {
    EXPECT_NE(std::string(e.what()).find("group 1"), std::string::npos)
        << e.what();
  }
  // solve_subset shares the validation path.
  EXPECT_THROW((void)Solver::solve_subset(groups, Watts{600.0}), SolverError);
}

TEST(SolverSanity, HealthyInstancesNeverTripTheRepairCounter) {
  telemetry::Telemetry context;
  const telemetry::TelemetryScope scope(&context);
  Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    const double lo = rng.uniform(30.0, 90.0);
    const double hi = lo + rng.uniform(30.0, 120.0);
    std::vector<GroupModel> groups(
        static_cast<std::size_t>(rng.uniform_int(1, 3)),
        concave_group(-0.01, 5.0, -50.0, Watts{lo}, Watts{hi}, 4));
    (void)Solver::solve(groups, Watts{rng.uniform(200.0, 2000.0)});
  }
  EXPECT_EQ(context.metrics().snapshot().find("gh_solver_repairs_total"),
            nullptr);
}

}  // namespace
}  // namespace greenhetero
