// Reproduction regression suite: pins the headline numbers of
// EXPERIMENTS.md so a refactor or recalibration that silently breaks the
// paper's shapes fails CI.  Thresholds are deliberately loose bands around
// the measured values, not exact pins.
#include <gtest/gtest.h>

#include <map>

#include "bench_common.h"
#include "core/epu.h"
#include "generators.h"

namespace greenhetero {
namespace {

using bench::PolicyResult;

double gh_over_uniform_perf(const std::vector<PolicyResult>& results) {
  return results.front().throughput > 0.0
             ? results.back().throughput / results.front().throughput
             : 0.0;
}

double gh_over_uniform_epu(const std::vector<PolicyResult>& results) {
  return results.front().epu > 0.0 ? results.back().epu / results.front().epu
                                   : 0.0;
}

// --- Figure 3 arithmetic (the case study's EPU anchors). -------------------

TEST(Reproduction, Figure3EpuAnchors) {
  // 220 W budget; Server A usable 81 W, Server B usable 147 W.
  const Watts budget{220.0};
  // Uniform split: A capped at 81, B draws its 110 share.
  EXPECT_NEAR(EpuMeter::instantaneous(budget, Watts{81.0 + 110.0}), 0.868,
              0.01);  // paper: 86%
  // Degenerate: everything to A.
  EXPECT_NEAR(EpuMeter::instantaneous(budget, Watts{81.0}), 0.368,
              0.01);  // paper: 37%
  // Optimum: B near its 147 W max, A absorbing the rest.
  EXPECT_NEAR(EpuMeter::instantaneous(budget, Watts{147.0 + 73.0}), 1.0,
              1e-9);  // paper: ~100%
}

// --- Figure 9 / 10 headline bands. -----------------------------------------

class Figure9Band : public ::testing::Test {
 protected:
  // The Figure 9/10 cells of the reproduction matrix.
  static const std::map<Workload, std::vector<PolicyResult>>& results() {
    return bench::workload_study();
  }
};

TEST_F(Figure9Band, MeanPerformanceGainNearPaper) {
  double sum = 0.0;
  for (const auto& [w, r] : results()) {
    sum += gh_over_uniform_perf(r);
  }
  const double mean = sum / results().size();
  // Paper: ~1.6x.
  EXPECT_GT(mean, 1.35);
  EXPECT_LT(mean, 1.9);
}

TEST_F(Figure9Band, StreamclusterIsTheBestCpuWorkload) {
  const double streamcluster =
      gh_over_uniform_perf(results().at(Workload::kStreamcluster));
  EXPECT_GT(streamcluster, 1.8);  // paper: 2.2x
  for (const auto& [w, r] : results()) {
    EXPECT_LE(gh_over_uniform_perf(r), streamcluster + 1e-9)
        << workload_spec(w).name;
  }
}

TEST_F(Figure9Band, InteractiveServicesGainLeast) {
  // Paper: Memcached worst at 1.2x; interactive services cluster low.
  const double memcached =
      gh_over_uniform_perf(results().at(Workload::kMemcached));
  const double websearch =
      gh_over_uniform_perf(results().at(Workload::kWebSearch));
  EXPECT_LT(memcached, 1.35);
  EXPECT_LT(websearch, 1.35);
  for (Workload batch : {Workload::kFreqmine, Workload::kVips,
                         Workload::kStreamcluster}) {
    EXPECT_GT(gh_over_uniform_perf(results().at(batch)), memcached);
  }
}

TEST_F(Figure9Band, GreenHeteroNeverLosesToUniform) {
  for (const auto& [w, r] : results()) {
    EXPECT_GE(gh_over_uniform_perf(r), 0.98) << workload_spec(w).name;
  }
}

TEST_F(Figure9Band, FullGreenHeteroAtLeastMatchesStaticVariant) {
  for (const auto& [w, r] : results()) {
    // r[3] = GreenHetero-a, r[4] = GreenHetero.
    EXPECT_GE(r[4].throughput, r[3].throughput * 0.97)
        << workload_spec(w).name;
  }
}

TEST_F(Figure9Band, CannealHasTheBestEpuGain) {
  const double canneal = gh_over_uniform_epu(results().at(Workload::kCanneal));
  EXPECT_GT(canneal, 2.0);  // paper: 2.7x
  for (const auto& [w, r] : results()) {
    EXPECT_LE(gh_over_uniform_epu(r), canneal + 1e-9)
        << workload_spec(w).name;
  }
  // Web-search shows the smallest improvement (paper: 1.1x).
  EXPECT_LT(gh_over_uniform_epu(results().at(Workload::kWebSearch)), 1.3);
}

// --- Figure 13 contrast: heterogeneous pairs gain, similar pairs do not. ---

TEST(Reproduction, Figure13CombinationContrast) {
  std::map<std::string, double> gains;
  for (const auto& comb : table4_combinations()) {
    if (comb.name == "Comb6") continue;
    gains[std::string(comb.name)] = gh_over_uniform_perf(
        bench::sweep(bench::Scenario{.groups = comb.groups},
                     bench::share_budgets(comb.groups)));
  }
  EXPECT_GT(gains["Comb1"], 1.25);  // paper ~1.5x
  EXPECT_GT(gains["Comb3"], 1.25);
  EXPECT_GT(gains["Comb5"], 1.35);  // three types, paper 1.6x
  EXPECT_LT(gains["Comb2"], 1.2);   // near-homogeneous, paper ~1.03x
  EXPECT_LT(gains["Comb4"], 1.2);
  EXPECT_GT(gains["Comb1"], gains["Comb2"]);
  EXPECT_GT(gains["Comb3"], gains["Comb4"]);
}

// --- Figure 14: the GPU node dominates Srad_v1, ties on Cfd. ----------------

TEST(Reproduction, Figure14GpuContrast) {
  const auto& comb6 = combination_by_name("Comb6");
  std::map<Workload, double> gains;
  for (Workload w : comb6.workloads) {
    gains[w] = gh_over_uniform_perf(
        bench::sweep(bench::Scenario{.groups = comb6.groups, .workload = w},
                     bench::scarcity_budgets(comb6.groups, w)));
  }
  EXPECT_GT(gains[Workload::kSradV1], 2.5);  // paper: up to 4.6x
  for (Workload w : comb6.workloads) {
    EXPECT_LE(gains[w], gains[Workload::kSradV1] + 1e-9);
  }
  EXPECT_LT(gains[Workload::kCfd], 1.5);  // CPU ~ GPU for Cfd
}

// --- Figure 8 runtime shape. ------------------------------------------------

TEST(Reproduction, Figure8RuntimeShape) {
  const RunReport& gh = bench::paper_day(PolicyKind::kGreenHetero);
  const RunReport& uni = bench::paper_day(PolicyKind::kUniform);

  // Paper: ~1.5x gain in insufficient epochs on the High trace.
  EXPECT_GT(testgen::mean_throughput_insufficient(gh),
            1.2 * testgen::mean_throughput_insufficient(uni));
  // PAR adapts and averages in a plausible band (paper: 58%).
  const double mean_par = gh.mean_ratio(0);
  EXPECT_GT(mean_par, 0.4);
  EXPECT_LT(mean_par, 0.85);
  // All source cases appear over the day.
  EXPECT_GT(gh.epochs_in_case(PowerCase::kRenewableSufficient), 0);
  EXPECT_GT(gh.epochs_in_case(PowerCase::kBatteryOnly), 0);
  EXPECT_GT(gh.epochs_in_case(PowerCase::kGridFallback), 0);
}

}  // namespace
}  // namespace greenhetero
