// Timing probes: RAII stopwatches recording wall-clock nanoseconds into the
// ambient registry's latency histograms.
//
//   void Solver::solve(...) {
//     GH_PROBE("gh_solver_solve_ns");
//     ...
//   }
//
// The name is a builtin catalog entry (metrics.h), resolved at compile
// time: a misspelt probe name does not compile, and the observation goes
// straight to the histogram's pre-resolved registry slot.
//
// Probes are the one place wall time enters telemetry; traces never carry
// it.  Configure with the CMake option GH_TELEMETRY (default ON):
// -DGH_TELEMETRY=OFF compiles every GH_PROBE to a no-op, so hot paths carry
// zero overhead — not even the clock reads — in stripped builds.
#pragma once

#include "telemetry/telemetry.h"

#if GH_TELEMETRY_ENABLED

#include <chrono>

namespace greenhetero::telemetry {

class ScopedTimer {
 public:
  explicit ScopedTimer(HistogramId histogram)
      : sink_(current()), histogram_(histogram) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (sink_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    sink_->metrics().histogram(histogram_).observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Telemetry* sink_;
  HistogramId histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace greenhetero::telemetry

#define GH_PROBE_CONCAT2(a, b) a##b
#define GH_PROBE_CONCAT(a, b) GH_PROBE_CONCAT2(a, b)
#define GH_PROBE(name)                                 \
  ::greenhetero::telemetry::ScopedTimer GH_PROBE_CONCAT( \
      gh_probe_, __LINE__) { name }

#else  // !GH_TELEMETRY_ENABLED

#define GH_PROBE(name) ((void)0)

#endif
