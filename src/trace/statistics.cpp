#include "trace/statistics.h"

#include <algorithm>
#include <cmath>

namespace greenhetero {

TraceStatistics analyze_trace(const PowerTrace& trace) {
  if (trace.empty()) {
    throw TraceError("statistics: empty trace");
  }
  TraceStatistics stats;
  stats.mean = trace.mean_power();
  stats.peak = trace.peak_power();
  stats.load_factor =
      stats.peak.value() > 0.0 ? stats.mean / stats.peak : 0.0;

  double sum_sq = 0.0;
  double ramp_sum = 0.0;
  double max_ramp = 0.0;
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double v = trace.sample(i).value();
    const double d = v - stats.mean.value();
    sum_sq += d * d;
    if (v < 1e-9) ++zeros;
    if (i > 0) {
      const double ramp = std::fabs(v - trace.sample(i - 1).value());
      ramp_sum += ramp;
      max_ramp = std::max(max_ramp, ramp);
    }
  }
  const auto n = static_cast<double>(trace.size());
  const double variance = sum_sq / n;
  stats.variability =
      stats.mean.value() > 0.0 ? std::sqrt(variance) / stats.mean.value()
                               : 0.0;
  stats.mean_ramp =
      Watts{trace.size() > 1 ? ramp_sum / (n - 1.0) : 0.0};
  stats.max_ramp = Watts{max_ramp};
  stats.zero_fraction = static_cast<double>(zeros) / n;

  if (trace.size() > 1 && variance > 0.0) {
    double covariance = 0.0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
      covariance += (trace.sample(i).value() - stats.mean.value()) *
                    (trace.sample(i - 1).value() - stats.mean.value());
    }
    stats.autocorrelation = covariance / (n - 1.0) / variance;
  }
  return stats;
}

}  // namespace greenhetero
