// Ablation A2 (google-benchmark): the Holt predictor's cost — one
// observe/predict step and one train_holt call on the synthetic solar
// traces.
//
// A custom main runs the google-benchmark suite and then re-times Holt
// training on the 96-point window (one day of 15-minute epochs), on the
// first high-solar and the first low-solar day, to emit the
// machine-readable BENCH_predictor_micro.json via BenchReport.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "bench_timing.h"
#include "core/predictor.h"
#include "trace/solar.h"

namespace {

using namespace greenhetero;

std::vector<double> solar_series(bool low) {
  const PowerTrace trace = low ? low_solar_week(Watts{2500.0}, 3)
                               : high_solar_week(Watts{2500.0}, 3);
  std::vector<double> series;
  series.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    series.push_back(trace.sample(i).value());
  }
  return series;
}

void BM_HoltObserve(benchmark::State& state) {
  const auto series = solar_series(false);
  HoltPredictor predictor(HoltParams{0.6, 0.2});
  std::size_t i = 0;
  for (auto _ : state) {
    predictor.observe(series[i++ % series.size()]);
    if (predictor.ready()) benchmark::DoNotOptimize(predictor.predict());
  }
}
BENCHMARK(BM_HoltObserve);

/// The first day of the high-solar week (or of the low-solar week): the
/// window size the controller retrains on.
std::vector<double> training_window(bool low = false) {
  const auto series = solar_series(low);
  return {series.begin(), series.begin() + 96};
}

void BM_TrainHolt(benchmark::State& state) {
  const std::vector<double> window = training_window();
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_holt(window));
  }
}
BENCHMARK(BM_TrainHolt);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  greenhetero::bench::BenchReport report("predictor_micro");
  const std::vector<double> window = training_window();
  report.set("train_holt_96_ns", greenhetero::bench::time_ns_per_op(
                                     [&] { return train_holt(window); }, 200));
  // Informational (no baseline row): on the low-solar day the candidate
  // blocks fall behind the incumbent at other points, so the replay's
  // early abandon pays differently.
  const std::vector<double> low_window = training_window(true);
  report.set("train_holt_low_96_ns",
             greenhetero::bench::time_ns_per_op(
                 [&] { return train_holt(low_window); }, 200));
  report.write();
  return 0;
}
