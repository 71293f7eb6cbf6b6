// Hand-timed figures for the BENCH_<name>.json reports of the
// google-benchmark micro benches (which link benchmark::benchmark for
// DoNotOptimize).
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>

namespace greenhetero::bench {

/// Mean ns per call of `fn`, hand-timed over enough iterations to smooth
/// scheduler noise.  Best-of-5: each repeat averages `iterations` calls and
/// the minimum wins, so one preempted repeat cannot poison the figure the
/// benchdiff gate compares against bench/baselines/.
template <typename Fn>
double time_ns_per_op(Fn&& fn, int iterations = 2000) {
  // Warm-up pass so lazy initialisation does not land in the measurement.
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) {
      benchmark::DoNotOptimize(fn());
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    best = std::min(
        best, std::chrono::duration<double, std::nano>(elapsed).count() /
                  iterations);
  }
  return best;
}

}  // namespace greenhetero::bench
