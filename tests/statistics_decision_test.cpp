// Trace statistics.
#include <gtest/gtest.h>

#include "trace/load_pattern.h"
#include "trace/solar.h"
#include "trace/statistics.h"
#include "trace/wind.h"

namespace greenhetero {
namespace {

TEST(TraceStatistics, FlatTrace) {
  const PowerTrace flat{Minutes{15.0}, std::vector<Watts>(96, Watts{500.0})};
  const TraceStatistics s = analyze_trace(flat);
  EXPECT_DOUBLE_EQ(s.mean.value(), 500.0);
  EXPECT_DOUBLE_EQ(s.peak.value(), 500.0);
  EXPECT_DOUBLE_EQ(s.load_factor, 1.0);
  EXPECT_DOUBLE_EQ(s.variability, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_ramp.value(), 0.0);
  EXPECT_DOUBLE_EQ(s.zero_fraction, 0.0);
}

TEST(TraceStatistics, EmptyThrows) {
  EXPECT_THROW((void)analyze_trace(PowerTrace{}), TraceError);
}

TEST(TraceStatistics, SolarCharacter) {
  const TraceStatistics s = analyze_trace(high_solar_week(Watts{2500.0}, 3));
  // Nights push the capacity factor well below 1 and zero_fraction ~ half.
  EXPECT_LT(s.load_factor, 0.5);
  EXPECT_GT(s.zero_fraction, 0.3);
  EXPECT_LT(s.zero_fraction, 0.7);
  // Solar is strongly persistent at 15-minute sampling.
  EXPECT_GT(s.autocorrelation, 0.8);
}

TEST(TraceStatistics, LowTraceIsMoreVariable) {
  const TraceStatistics high =
      analyze_trace(high_solar_week(Watts{2500.0}, 3));
  const TraceStatistics low = analyze_trace(low_solar_week(Watts{2500.0}, 3));
  EXPECT_GT(low.variability, high.variability);
  EXPECT_LT(low.load_factor, high.load_factor);
}

TEST(TraceStatistics, WindVsSolarZeroFraction) {
  const TraceStatistics wind =
      analyze_trace(generate_wind_trace(WindModel{}, 7, 9));
  const TraceStatistics solar =
      analyze_trace(high_solar_week(Watts{2000.0}, 9));
  // Wind has no systematic nightly outage.
  EXPECT_LT(wind.zero_fraction, solar.zero_fraction);
}

}  // namespace
}  // namespace greenhetero
