#include <gtest/gtest.h>

#include <filesystem>

#include "util/csv.h"
#include "trace/heterogeneity.h"
#include "trace/load_pattern.h"
#include "trace/solar.h"
#include "trace/trace.h"

namespace greenhetero {
namespace {

using namespace greenhetero::literals;

PowerTrace small_trace() {
  return PowerTrace{Minutes{15.0},
                    {Watts{0.0}, Watts{100.0}, Watts{200.0}, Watts{50.0}}};
}

TEST(PowerTrace, BasicAccessors) {
  const PowerTrace t = small_trace();
  EXPECT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t.interval().value(), 15.0);
  EXPECT_DOUBLE_EQ(t.duration().value(), 60.0);
  EXPECT_DOUBLE_EQ(t.sample(2).value(), 200.0);
  EXPECT_THROW((void)t.sample(9), TraceError);
}

TEST(PowerTrace, StepLookup) {
  const PowerTrace t = small_trace();
  EXPECT_DOUBLE_EQ(t.at(Minutes{0.0}).value(), 0.0);
  EXPECT_DOUBLE_EQ(t.at(Minutes{14.9}).value(), 0.0);
  EXPECT_DOUBLE_EQ(t.at(Minutes{15.0}).value(), 100.0);
  EXPECT_DOUBLE_EQ(t.at(Minutes{44.0}).value(), 200.0);
  // Clamping out of range.
  EXPECT_DOUBLE_EQ(t.at(Minutes{-5.0}).value(), 0.0);
  EXPECT_DOUBLE_EQ(t.at(Minutes{500.0}).value(), 50.0);
}

TEST(PowerTrace, Aggregates) {
  const PowerTrace t = small_trace();
  EXPECT_DOUBLE_EQ(t.mean_power().value(), 87.5);
  EXPECT_DOUBLE_EQ(t.peak_power().value(), 200.0);
}

TEST(PowerTrace, InvalidConstruction) {
  EXPECT_THROW(PowerTrace(Minutes{0.0}, {Watts{1.0}}), TraceError);
  EXPECT_THROW(PowerTrace(Minutes{-1.0}, {Watts{1.0}}), TraceError);
}

TEST(PowerTrace, CsvRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "greenhetero_trace_test.csv";
  const PowerTrace t = small_trace();
  t.save_csv(path);
  const CsvTable back = CsvTable::load(path);
  ASSERT_EQ(back.row_count(), t.size());
  const std::size_t minute = back.column_index("minute");
  const std::size_t watts = back.column_index("watts");
  EXPECT_DOUBLE_EQ(back.number(1, minute), 15.0);
  EXPECT_DOUBLE_EQ(back.number(2, minute), 30.0);
  EXPECT_DOUBLE_EQ(back.number(2, watts), 200.0);
  std::filesystem::remove(path);
}

TEST(Solar, EnvelopeShape) {
  const SolarModel model = high_solar_model(Watts{1000.0});
  EXPECT_DOUBLE_EQ(clear_sky_envelope(model, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(clear_sky_envelope(model, 6.0), 0.0);
  EXPECT_DOUBLE_EQ(clear_sky_envelope(model, 18.0), 0.0);
  EXPECT_NEAR(clear_sky_envelope(model, 12.0), 1.0, 1e-9);
  EXPECT_GT(clear_sky_envelope(model, 9.0), 0.5);
}

TEST(Solar, TraceIsDeterministicAndDiurnal) {
  const PowerTrace a = high_solar_week(Watts{2500.0}, 7);
  const PowerTrace b = high_solar_week(Watts{2500.0}, 7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), 7u * 96u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sample(i).value(), b.sample(i).value());
  }
  // Night samples are zero, midday samples are substantial.
  EXPECT_DOUBLE_EQ(a.at(Minutes{2.0 * 60.0}).value(), 0.0);
  EXPECT_GT(a.at(Minutes{12.0 * 60.0}).value(), 500.0);
}

TEST(Solar, HighTraceYieldsMoreThanLow) {
  const PowerTrace high = high_solar_week(Watts{2500.0}, 7);
  const PowerTrace low = low_solar_week(Watts{2500.0}, 7);
  EXPECT_GT(high.mean_power().value(), 1.5 * low.mean_power().value());
}

TEST(Solar, NeverExceedsCapacityOrNegative) {
  const PowerTrace t = low_solar_week(Watts{2000.0}, 3);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t.sample(i).value(), 0.0);
    EXPECT_LE(t.sample(i).value(), 2000.0 + 1e-9);
  }
}

TEST(Solar, InvalidArguments) {
  EXPECT_THROW((void)generate_solar_trace(high_solar_model(Watts{100.0}), 0, 1),
               TraceError);
  EXPECT_THROW((void)generate_solar_trace(high_solar_model(Watts{100.0}), 1, 1,
                                          Minutes{0.0}),
               TraceError);
}

TEST(LoadPattern, DiurnalAnchors) {
  const LoadPatternModel m;
  EXPECT_DOUBLE_EQ(diurnal_utilization(m, 3.0), m.night_level);
  EXPECT_DOUBLE_EQ(diurnal_utilization(m, 12.0), m.day_level);
  EXPECT_NEAR(diurnal_utilization(m, m.evening_peak_hour), m.evening_peak,
              1e-9);
  EXPECT_DOUBLE_EQ(diurnal_utilization(m, 23.5), m.night_level);
}

TEST(LoadPattern, TraceBoundsAndScale) {
  const LoadPatternModel m;
  const PowerTrace t = generate_load_trace(m, Watts{1000.0}, 2, 11);
  EXPECT_EQ(t.size(), 2u * 96u);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GT(t.sample(i).value(), 0.0);
    EXPECT_LE(t.sample(i).value(), 1000.0);
  }
  // Evening peak beats night trough.
  EXPECT_GT(t.at(Minutes{20.0 * 60.0}).value(),
            t.at(Minutes{3.0 * 60.0}).value());
}

TEST(Heterogeneity, MatchesFigure1) {
  const auto& data = google_datacenter_heterogeneity();
  EXPECT_EQ(data.size(), 10u);
  for (const auto& dc : data) {
    EXPECT_GE(dc.config_count, 2);
    EXPECT_LE(dc.config_count, 5);
  }
  // ~80% of datacenters have 2-3 configurations (paper Section IV-B.3).
  EXPECT_NEAR(fraction_with_at_most(3), 0.7, 0.15);
  EXPECT_DOUBLE_EQ(fraction_with_at_most(5), 1.0);
}

TEST(Heterogeneity, Histogram) {
  const auto hist = heterogeneity_histogram();
  int total = 0;
  for (int c : hist) total += c;
  EXPECT_EQ(total, 10);
  EXPECT_EQ(hist[0], 0);
  EXPECT_EQ(hist[1], 0);
}

TEST(Heterogeneity, SamplerWithinRange) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    const int c = sample_config_count(123, i);
    EXPECT_GE(c, 2);
    EXPECT_LE(c, 5);
  }
  EXPECT_EQ(sample_config_count(123, 7), sample_config_count(123, 7));
}

}  // namespace
}  // namespace greenhetero
