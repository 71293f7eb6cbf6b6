// Subset activation (GreenHetero-s): the extension that wakes k of n
// servers per group instead of the paper's equal split across all n.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "core/enforcer.h"
#include "core/policies.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "util/rng.h"

namespace greenhetero {
namespace {

GroupModel xeon_group() {
  // Concave SPECjbb-ish fit on the E5-2620 window.
  return GroupModel{Quadratic{-0.015, 7.0, -250.0}, Watts{88.0}, Watts{178.0},
                    5};
}

TEST(SubsetSolver, BestSubsetPerfPicksTheRightCount) {
  // One group: the subset solver picks how many servers to wake.  The fit
  // rises across the whole range, so k servers do best at budget / k each
  // (capped at peak); check against that exhaustive count scan.
  const std::vector<GroupModel> one = {xeon_group()};
  for (double budget : {80.0, 200.0, 450.0, 900.0, 2000.0}) {
    const Allocation a = Solver::solve_subset(one, Watts{budget});
    double exhaustive = 0.0;
    int exhaustive_k = 0;
    for (int kk = 1; kk <= one[0].count; ++kk) {
      const double perf = kk * one[0].perf_at(Watts{budget / kk});
      if (perf > exhaustive) {
        exhaustive = perf;
        exhaustive_k = kk;
      }
    }
    EXPECT_NEAR(a.predicted_perf, exhaustive, 1e-9 * exhaustive) << budget;
    ASSERT_EQ(a.active_counts.size(), 1u);
    EXPECT_EQ(a.active_counts[0], exhaustive_k) << budget;
  }
}

TEST(SubsetSolver, ZeroBudgetWakesNobody) {
  // 50 W is below one server's 88 W floor.
  const std::vector<GroupModel> one = {xeon_group()};
  const Allocation a = Solver::solve_subset(one, Watts{50.0});
  EXPECT_DOUBLE_EQ(a.predicted_perf, 0.0);
  EXPECT_DOUBLE_EQ(a.ratios[0], 0.0);
  EXPECT_EQ(a.active_counts[0], 0);
}

TEST(SubsetSolver, NeverWorseThanEvenSplit) {
  // Waking every server is one of the count vectors, and its solve is
  // Solver::solve's own instance.
  const std::vector<GroupModel> groups = {
      xeon_group(),
      GroupModel{Quadratic{-0.030, 9.0, -150.0}, Watts{47.0}, Watts{96.0}, 5},
  };
  for (double supply : {300.0, 500.0, 700.0, 1000.0, 1400.0}) {
    const Allocation even = Solver::solve(groups, Watts{supply});
    const Allocation subset = Solver::solve_subset(groups, Watts{supply});
    EXPECT_GE(subset.predicted_perf, even.predicted_perf)
        << "supply " << supply;
    ASSERT_EQ(subset.active_counts.size(), 2u);
    for (std::size_t g = 0; g < 2; ++g) {
      EXPECT_GE(subset.active_counts[g], 0);
      EXPECT_LE(subset.active_counts[g], groups[g].count);
    }
  }
}

/// The definition solve_subset reproduces, written independently of it:
/// every active-count vector in lexicographic order (group 0 most
/// significant), each solved by Solver::solve over the groups it wakes with
/// count = k_g; the first strict improvement on the all-zero vector's 0
/// wins, and a group its solve leaves unpowered reports 0 active servers.
Allocation enumerate_count_vectors(const std::vector<GroupModel>& groups,
                                   Watts supply) {
  const std::size_t n = groups.size();
  Allocation best{std::vector<double>(n, 0.0), 0.0, std::vector<int>(n, 0)};
  std::vector<int> k(n, 0);
  while (true) {
    std::vector<GroupModel> awake;
    std::vector<std::size_t> index;
    for (std::size_t g = 0; g < n; ++g) {
      if (k[g] == 0) continue;
      awake.push_back(groups[g]);
      awake.back().count = k[g];
      index.push_back(g);
    }
    if (!awake.empty()) {
      const Allocation a = Solver::solve(awake, supply);
      if (a.predicted_perf > best.predicted_perf) {
        best = Allocation{std::vector<double>(n, 0.0), a.predicted_perf,
                          std::vector<int>(n, 0)};
        for (std::size_t j = 0; j < index.size(); ++j) {
          best.ratios[index[j]] = a.ratios[j];
          best.active_counts[index[j]] = a.ratios[j] > 0.0 ? k[index[j]] : 0;
        }
      }
    }
    // Next vector: odometer with the last group turning fastest.
    std::size_t g = n;
    while (g > 0 && k[g - 1] == groups[g - 1].count) k[--g] = 0;
    if (g == 0) return best;
    ++k[g - 1];
  }
}

void expect_same_bits(const Allocation& fast, const Allocation& naive,
                      const std::string& where) {
  ASSERT_EQ(fast.ratios.size(), naive.ratios.size()) << where;
  ASSERT_EQ(fast.active_counts.size(), naive.active_counts.size()) << where;
  EXPECT_EQ(std::memcmp(fast.ratios.data(), naive.ratios.data(),
                        fast.ratios.size() * sizeof(double)),
            0)
      << where;
  EXPECT_EQ(std::memcmp(&fast.predicted_perf, &naive.predicted_perf,
                        sizeof(double)),
            0)
      << where << ": " << fast.predicted_perf << " vs "
      << naive.predicted_perf;
  EXPECT_EQ(std::memcmp(fast.active_counts.data(), naive.active_counts.data(),
                        fast.active_counts.size() * sizeof(int)),
            0)
      << where;
}

TEST(SubsetSolver, MatchesCountVectorEnumerationBitwise) {
  // 2400 seeded instances of 1 to kMaxSubsetGroups groups (degenerate fits
  // included), then 600 three-group instances sized 5/5/4.
  const Rng master(20261018);
  for (int i = 0; i < 2400; ++i) {
    Rng rng = master.fork(static_cast<std::uint64_t>(i));
    const std::vector<GroupModel> groups = check::random_group_models(
        rng, static_cast<int>(Solver::kMaxSubsetGroups));
    const Watts supply = check::random_supply(rng);
    expect_same_bits(Solver::solve_subset(groups, supply),
                     enumerate_count_vectors(groups, supply),
                     "instance " + std::to_string(i));
    if (HasFailure()) return;
  }
  for (int i = 0; i < 600; ++i) {
    Rng rng = master.fork(100000 + static_cast<std::uint64_t>(i));
    std::vector<GroupModel> groups;
    for (const int count : {5, 5, 4}) {
      groups.push_back(check::random_group_models(rng, 1).front());
      groups.back().count = count;
    }
    const Watts supply = check::random_supply(rng);
    expect_same_bits(Solver::solve_subset(groups, supply),
                     enumerate_count_vectors(groups, supply),
                     "5/5/4 instance " + std::to_string(i));
    if (HasFailure()) return;
  }
}

TEST(SubsetSolver, RejectsInstancesBeyondItsSearchCaps) {
  // One group more than the cap.
  std::vector<GroupModel> groups(Solver::kMaxSubsetGroups + 1, xeon_group());
  EXPECT_THROW((void)Solver::solve_subset(groups, Watts{900.0}), SolverError);
  // Four groups of 40 servers: 41^4 count vectors, past the 2^20 limit.
  groups.resize(4);
  for (GroupModel& g : groups) g.count = 40;
  EXPECT_THROW((void)Solver::solve_subset(groups, Watts{900.0}), SolverError);
}

TEST(SubsetSolver, DeepScarcityWakesAPartialGroup) {
  // 220 W: the even split leaves every server of both groups below its
  // floor (44 W/server at best), so the paper-style solver scores zero.
  // Subset activation fully powers two i5s instead.
  const std::vector<GroupModel> groups = {
      xeon_group(),
      GroupModel{Quadratic{-0.030, 9.0, -150.0}, Watts{47.0}, Watts{96.0}, 5},
  };
  const Allocation even = Solver::solve(groups, Watts{220.0});
  const Allocation subset = Solver::solve_subset(groups, Watts{220.0});
  EXPECT_NEAR(even.predicted_perf, 0.0, 1e-6);
  EXPECT_GT(subset.predicted_perf, 500.0);
  // The chosen i5 subset is strictly partial.
  EXPECT_GT(subset.active_counts[1], 0);
  EXPECT_LT(subset.active_counts[1], 5);
}

TEST(SubsetSolver, AbundanceMatchesEvenSplit) {
  // With plenty of power, concavity favours waking everyone: the subset
  // solver must converge to the paper's equal-split behaviour.
  const std::vector<GroupModel> groups = {
      xeon_group(),
      GroupModel{Quadratic{-0.030, 9.0, -150.0}, Watts{47.0}, Watts{96.0}, 5},
  };
  const Allocation even = Solver::solve(groups, Watts{1400.0});
  const Allocation subset = Solver::solve_subset(groups, Watts{1400.0});
  EXPECT_NEAR(subset.predicted_perf, even.predicted_perf,
              0.01 * even.predicted_perf);
  EXPECT_EQ(subset.active_counts[0], 5);
  EXPECT_EQ(subset.active_counts[1], 5);
}

TEST(SubsetRack, EnforcementWakesExactlyKServers) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  const std::vector<Watts> power = {Watts{300.0}, Watts{192.0}};
  const std::vector<int> active = {2, 2};
  rack.enforce_allocation_subset(power, active);
  // Group 0: two Xeons at 150 W each; group 1: two i5s at 96 W each.
  EXPECT_GT(rack.group_draw(0).value(), 0.0);
  EXPECT_LE(rack.group_draw(0).value(), 300.0 + 1e-9);
  EXPECT_NEAR(rack.group_draw(1).value(), 192.0, 1.0);
  // Representative (first server) is awake in both groups.
  EXPECT_GT(rack.group_representative(0).draw().value(), 0.0);
}

TEST(SubsetRack, ZeroActiveSleepsTheGroup) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  rack.run_full_speed();
  const std::vector<Watts> power = {Watts{0.0}, Watts{480.0}};
  const std::vector<int> active = {0, 5};
  rack.enforce_allocation_subset(power, active);
  EXPECT_DOUBLE_EQ(rack.group_draw(0).value(), 0.0);
  EXPECT_GT(rack.group_draw(1).value(), 0.0);
}

TEST(SubsetRack, Validation) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  const std::vector<Watts> power = {Watts{100.0}, Watts{100.0}};
  const std::vector<int> bad_count = {6, 1};
  EXPECT_THROW(rack.enforce_allocation_subset(power, bad_count), RackError);
  const std::vector<int> short_active = {1};
  EXPECT_THROW(rack.enforce_allocation_subset(power, short_active),
               RackError);
}

TEST(SubsetPolicy, FactoryAndFlags) {
  const auto policy = make_policy(PolicyKind::kGreenHeteroS);
  EXPECT_EQ(policy->kind(), PolicyKind::kGreenHeteroS);
  EXPECT_TRUE(policy->needs_database());
  EXPECT_TRUE(policy->updates_database());
  EXPECT_EQ(to_string(PolicyKind::kGreenHeteroS), "GreenHetero-s");
}

TEST(SubsetPolicy, EndToEndBeatsGreenHeteroUnderDeepScarcity) {
  auto run_policy = [](PolicyKind kind) {
    Rack rack{default_runtime_rack(), Workload::kStreamcluster};
    const Watts budget = rack.peak_demand() * 0.25;  // deep scarcity
    SimConfig cfg;
    cfg.controller.policy = kind;
    cfg.controller.seed = 31;
    cfg.controller.profiling_noise = 0.0;
    RackSimulator sim{std::move(rack),
                      make_fixed_budget_plant(budget, Minutes{300.0}),
                      std::move(cfg)};
    sim.pretrain();
    return sim.run(Minutes{120.0});
  };
  const RunReport gh = run_policy(PolicyKind::kGreenHetero);
  const RunReport ghs = run_policy(PolicyKind::kGreenHeteroS);
  EXPECT_GT(ghs.mean_throughput(), gh.mean_throughput());
  EXPECT_NEAR(ghs.ledger.conservation_error(), 0.0, 1e-6);
}

TEST(SubsetPolicy, RaplModeRejectsSubsetPolicy) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHeteroS;
  cfg.rapl_enforcement = true;
  EXPECT_THROW(RackSimulator(std::move(rack),
                             make_fixed_budget_plant(Watts{500.0},
                                                     Minutes{100.0}),
                             std::move(cfg)),
               std::invalid_argument);
}

}  // namespace
}  // namespace greenhetero
