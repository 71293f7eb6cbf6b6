#include "trace/wind.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "trace/solar.h"

namespace greenhetero {
namespace {

TEST(Wind, PowerCurveShape) {
  const WindModel m;
  EXPECT_DOUBLE_EQ(wind_power_fraction(m, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(wind_power_fraction(m, 2.9), 0.0);   // below cut-in
  EXPECT_GT(wind_power_fraction(m, 5.0), 0.0);
  EXPECT_LT(wind_power_fraction(m, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(wind_power_fraction(m, 12.0), 1.0);  // rated
  EXPECT_DOUBLE_EQ(wind_power_fraction(m, 20.0), 1.0);
  EXPECT_DOUBLE_EQ(wind_power_fraction(m, 25.0), 0.0);  // storm cut-out
  EXPECT_DOUBLE_EQ(wind_power_fraction(m, 40.0), 0.0);
}

TEST(Wind, PowerCurveIsCubicBetweenCutInAndRated) {
  const WindModel m;
  // At the midpoint speed the cubic law gives a specific fraction.
  const double s = 7.5;
  const double expected = (s * s * s - 27.0) / (12.0 * 12.0 * 12.0 - 27.0);
  EXPECT_NEAR(wind_power_fraction(m, s), expected, 1e-12);
  // Monotone within the ramp.
  double prev = 0.0;
  for (double v = 3.0; v <= 12.0; v += 0.5) {
    const double f = wind_power_fraction(m, v);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(Wind, TraceDeterministicAndBounded) {
  const WindModel m;
  const PowerTrace a = generate_wind_trace(m, 3, 9);
  const PowerTrace b = generate_wind_trace(m, 3, 9);
  ASSERT_EQ(a.size(), 3u * 96u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sample(i).value(), b.sample(i).value());
    EXPECT_GE(a.sample(i).value(), 0.0);
    EXPECT_LE(a.sample(i).value(), m.rated_power.value() + 1e-9);
  }
}

TEST(Wind, ProducesAtNightUnlikeSolar) {
  const PowerTrace wind = generate_wind_trace(WindModel{}, 7, 9);
  const PowerTrace solar = high_solar_week(Watts{2000.0}, 9);
  // Sum production over 0:00-4:00 across the week.
  double wind_night = 0.0;
  double solar_night = 0.0;
  for (int day = 0; day < 7; ++day) {
    for (int q = 0; q < 16; ++q) {
      const Minutes t{day * 24.0 * 60.0 + q * 15.0};
      wind_night += wind.at(t).value();
      solar_night += solar.at(t).value();
    }
  }
  EXPECT_DOUBLE_EQ(solar_night, 0.0);
  EXPECT_GT(wind_night, 0.0);
}

TEST(Wind, CapacityFactorIsPlausible) {
  // Typical onshore capacity factors run 20-50%.
  const PowerTrace trace = generate_wind_trace(WindModel{}, 14, 4);
  const double cf = trace.mean_power().value() / 2000.0;
  EXPECT_GT(cf, 0.15);
  EXPECT_LT(cf, 0.6);
}

TEST(Wind, PersistenceCorrelatesNeighbours) {
  // Successive samples must be far more similar than random pairs.
  const PowerTrace trace = generate_wind_trace(WindModel{}, 7, 11);
  double adjacent_diff = 0.0;
  double far_diff = 0.0;
  const std::size_t n = trace.size() - 100;
  for (std::size_t i = 0; i < n; ++i) {
    adjacent_diff += std::abs(trace.sample(i + 1).value() -
                              trace.sample(i).value());
    far_diff += std::abs(trace.sample(i + 97).value() -
                         trace.sample(i).value());
  }
  EXPECT_LT(adjacent_diff, 0.6 * far_diff);
}

TEST(Wind, Validation) {
  EXPECT_THROW((void)generate_wind_trace(WindModel{}, 0, 1), TraceError);
  WindModel bad;
  bad.cut_in_ms = 15.0;  // above rated
  EXPECT_THROW((void)generate_wind_trace(bad, 1, 1), TraceError);
  bad = WindModel{};
  bad.persistence = 1.0;
  EXPECT_THROW((void)generate_wind_trace(bad, 1, 1), TraceError);
}

TEST(Wind, HybridPlantFlattensNightDeficit) {
  // A hybrid plant's worst 4-hour window beats solar-only's (which is 0).
  const PowerTrace solar = high_solar_week(Watts{2000.0}, 9);
  const PowerTrace wind = generate_wind_trace(WindModel{}, 7, 9);
  ASSERT_EQ(wind.size(), solar.size());
  std::vector<Watts> sum;
  for (std::size_t i = 0; i < solar.size(); ++i) {
    sum.push_back(solar.sample(i) + wind.sample(i));
  }
  const PowerTrace hybrid{solar.interval(), std::move(sum)};
  EXPECT_GT(hybrid.mean_power().value(), solar.mean_power().value());
}

}  // namespace
}  // namespace greenhetero
