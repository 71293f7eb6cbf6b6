// Ablation A2 (google-benchmark): predictor cost and accuracy — Holt versus
// the last-value and moving-average baselines on the synthetic solar traces.
// Accuracy (mean absolute one-step error in watts) is reported as a counter.
//
// A custom main runs the google-benchmark suite and then re-times Holt
// training on the 96-point window (one day of 15-minute epochs), on the
// first high-solar and the first low-solar day, to emit the
// machine-readable BENCH_predictor_micro.json via BenchReport.
#include <benchmark/benchmark.h>

#include <cmath>
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

template <class Predictor>
double replay_mae(Predictor& predictor, const std::vector<double>& series) {
  double err = 0.0;
  int counted = 0;
  for (double v : series) {
    if (predictor.ready()) {
      err += std::fabs(predictor.predict() - v);
      ++counted;
    }
    predictor.observe(v);
  }
  return counted ? err / counted : 0.0;
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

void BM_PredictorAccuracy(benchmark::State& state) {
  const bool low = state.range(0) == 1;
  const auto series = solar_series(low);
  double holt_mae = 0.0;
  double hw_mae = 0.0;
  double last_mae = 0.0;
  double avg_mae = 0.0;
  for (auto _ : state) {
    HoltPredictor holt(train_holt(series));
    HoltWintersPredictor hw(train_holt(series), /*period=*/96, 0.4);
    LastValuePredictor last;
    MovingAveragePredictor avg(4);
    holt_mae = replay_mae(holt, series);
    hw_mae = replay_mae(hw, series);
    last_mae = replay_mae(last, series);
    avg_mae = replay_mae(avg, series);
  }
  state.counters["holt_mae_w"] = holt_mae;
  state.counters["holtwinters_mae_w"] = hw_mae;
  state.counters["lastvalue_mae_w"] = last_mae;
  state.counters["movavg4_mae_w"] = avg_mae;
}
BENCHMARK(BM_PredictorAccuracy)
    ->Arg(0)  // High trace
    ->Arg(1)  // Low trace
    ->Iterations(1);

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
