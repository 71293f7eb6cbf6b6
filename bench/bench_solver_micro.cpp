// Ablation A1 (google-benchmark): the exact KKT Solver timed on
// representative 2-, 3- and 5-group problems, plus the subset-activation
// search on 5/5/4 servers, and its optimality gap against the oracle's
// exhaustive grid (check::oracle_solve).
//
// A custom main runs the google-benchmark suite and then re-times the key
// entry points with a plain steady_clock loop to emit the machine-readable
// BENCH_solver_micro.json via BenchReport.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "bench_timing.h"
#include "check/oracle.h"
#include "core/solver.h"

namespace {

using namespace greenhetero;

std::vector<GroupModel> two_groups() {
  return {
      GroupModel{Quadratic{-0.015, 7.0, -250.0}, Watts{88.0}, Watts{178.0}, 5},
      GroupModel{Quadratic{-0.030, 9.0, -150.0}, Watts{47.0}, Watts{96.0}, 5},
  };
}

std::vector<GroupModel> three_groups() {
  auto groups = two_groups();
  groups.push_back(
      GroupModel{Quadratic{-0.05, 7.0, -100.0}, Watts{58.0}, Watts{79.0}, 5});
  return groups;
}

void BM_SolveTwoGroups(benchmark::State& state) {
  const auto groups = two_groups();
  const Watts supply{static_cast<double>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solver::solve(groups, supply));
  }
}
BENCHMARK(BM_SolveTwoGroups)->Arg(500)->Arg(900)->Arg(1400);

void BM_SolveThreeGroups(benchmark::State& state) {
  const auto groups = three_groups();
  const Watts supply{static_cast<double>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solver::solve(groups, supply));
  }
}
BENCHMARK(BM_SolveThreeGroups)->Arg(900)->Arg(1500);

/// The three-group fits with 5/5/4 servers: 179 active-count vectors for
/// the subset-activation search.
std::vector<GroupModel> three_groups_554() {
  auto groups = three_groups();
  groups[2].count = 4;
  return groups;
}

void BM_SolveSubsetThreeGroups(benchmark::State& state) {
  const auto groups = three_groups_554();
  const Watts supply{static_cast<double>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solver::solve_subset(groups, supply));
  }
}
BENCHMARK(BM_SolveSubsetThreeGroups)->Arg(400)->Arg(900)->Arg(1500);

std::vector<GroupModel> five_groups() {
  auto groups = three_groups();
  groups.push_back(
      GroupModel{Quadratic{-0.02, 6.0, -120.0}, Watts{66.0}, Watts{112.0}, 5});
  groups.push_back(
      GroupModel{Quadratic{-0.04, 11.0, -140.0}, Watts{39.0}, Watts{88.0}, 5});
  return groups;
}

void BM_SolveFiveGroups(benchmark::State& state) {
  const auto groups = five_groups();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solver::solve(groups, Watts{2000.0}));
  }
}
BENCHMARK(BM_SolveFiveGroups);

// Optimality gap of the production solver vs the oracle's very fine grid,
// reported as a counter (x1000) alongside the timing.
void BM_SolveOptimalityGap(benchmark::State& state) {
  const auto groups = two_groups();
  double worst_gap = 0.0;
  for (auto _ : state) {
    for (double supply : {500.0, 700.0, 900.0, 1100.0, 1400.0}) {
      const Allocation fast = Solver::solve(groups, Watts{supply});
      const check::OracleSolution brute =
          check::oracle_solve(groups, Watts{supply}, 0.0005);
      if (brute.perf > 0.0) {
        worst_gap = std::max(worst_gap, 1.0 - fast.predicted_perf / brute.perf);
      }
    }
  }
  state.counters["worst_gap_x1000"] = worst_gap * 1000.0;
}
BENCHMARK(BM_SolveOptimalityGap)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  using greenhetero::bench::time_ns_per_op;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  greenhetero::bench::BenchReport report("solver_micro");
  const auto g2 = two_groups();
  const auto g3 = three_groups();
  const auto g5 = five_groups();
  report.set("solve_2groups_ns", time_ns_per_op([&] {
               return Solver::solve(g2, Watts{900.0});
             }));
  report.set("solve_3groups_ns", time_ns_per_op([&] {
               return Solver::solve(g3, Watts{1500.0});
             }));
  report.set("solve_5groups_ns", time_ns_per_op([&] {
               return Solver::solve(g5, Watts{2000.0});
             }));
  const auto g554 = three_groups_554();
  report.set("solve_subset_3groups_ns", time_ns_per_op([&] {
               return Solver::solve_subset(g554, Watts{900.0});
             }));
  report.write();
  return 0;
}
