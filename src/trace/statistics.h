// Power-trace statistics: the numbers an operator (and the trace-generation
// tests) use to characterise a renewable source or a demand pattern.
#pragma once

#include "trace/trace.h"

namespace greenhetero {

struct TraceStatistics {
  Watts mean{0.0};
  Watts peak{0.0};
  /// mean / peak — for a generation trace against its rated power this is
  /// the capacity factor.
  double load_factor = 0.0;
  /// Coefficient of variation (stddev / mean); 0 for a flat trace.
  double variability = 0.0;
  /// Mean absolute change between consecutive samples, in watts per sample.
  Watts mean_ramp{0.0};
  /// Largest single-step change.
  Watts max_ramp{0.0};
  /// Fraction of samples at (essentially) zero output.
  double zero_fraction = 0.0;
  /// Lag-1 autocorrelation of the sample series.
  double autocorrelation = 0.0;
};

/// Compute statistics over a whole trace (throws TraceError when empty).
[[nodiscard]] TraceStatistics analyze_trace(const PowerTrace& trace);

}  // namespace greenhetero
