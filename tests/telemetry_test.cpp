// Telemetry subsystem: metrics registry semantics, exporters, trace ring
// and the ambient context scope.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "checkpoint/serializer.h"
#include "core/health.h"
#include "faults/fault_plan.h"
#include "power/power_bus.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/ledger.h"
#include "telemetry/metrics.h"
#include "telemetry/stream_sink.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracing.h"
#include "trace_file.h"
#include "util/logging.h"

namespace greenhetero::telemetry {
namespace {

TEST(FormatNumber, IntegersAndDecimalsAndSpecials) {
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(42.0), "42");
  EXPECT_EQ(format_number(-7.0), "-7");
  EXPECT_EQ(format_number(0.5), "0.5");
  EXPECT_EQ(format_number(1.25), "1.25");
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()), "-Inf");
  EXPECT_EQ(format_number(std::nan("")), "NaN");
}

/// The printf spelling append_number reproduces with std::to_chars.
std::string snprintf_number(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0.0 ? "+Inf" : "-Inf";
  char buf[40];
  if (std::nearbyint(value) == value && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", value);
  }
  return buf;
}

TEST(FormatNumber, MatchesSnprintfBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.5, 2.5, -2.5, 0.1, 1.0 / 3.0,
      1e15, -1e15, std::nextafter(1e15, 0.0), std::nextafter(1e15, inf),
      std::nextafter(-1e15, 0.0), std::nextafter(-1e15, -inf),
      9007199254740992.0 - 1.0, 9007199254740992.0 + 2.0,  // 2^53 -/+ 1 ulp
      -9007199254740991.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 9999999999.5, 99999.999995,
      1234567890.5, 0.00001234567891, 1e-5, 1e-4, 1e16, 1e300, -1e-300,
      std::nan(""), -std::nan(""), inf, -inf};
  for (double v : values) {
    SCOPED_TRACE(snprintf_number(v));
    EXPECT_EQ(format_number(v), snprintf_number(v));
  }
  // Appends in place, after what the string already holds.
  std::string out = "x=";
  append_number(out, 2.5);
  EXPECT_EQ(out, "x=2.5");

  // Seeded random bit patterns (every exponent, subnormals, NaN payloads),
  // integers below 1e15 and plain fractions.
  std::mt19937_64 rng(0x5EED);
  std::uniform_real_distribution<double> fraction(-1e6, 1e6);
  std::uniform_int_distribution<std::int64_t> integer(-999'999'999'999'999,
                                                      999'999'999'999'999);
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (int i = 0; i < 1'200'000; ++i) {
    double v = 0.0;
    if (i % 6 == 4) {
      v = static_cast<double>(integer(rng));
    } else if (i % 6 == 5) {
      v = fraction(rng);
    } else {
      const std::uint64_t bits = rng();
      std::memcpy(&v, &bits, sizeof(v));
    }
    const std::string want = snprintf_number(v);
    if (format_number(v) != want && mismatches++ == 0) first_mismatch = want;
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

TEST(Counter, AccumulatesAndResets) {
  MetricsRegistry registry;
  Counter& c = registry.counter("gh_substeps_total");
  c.increment();
  c.increment(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Re-fetch returns the same series.
  EXPECT_EQ(&registry.counter("gh_substeps_total"), &c);
  registry.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  // A reset series stays listed.
  EXPECT_EQ(registry.snapshot().entries.size(), 1u);
}

TEST(Gauge, HoldsLastValue) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("gh_battery_soc");
  g.set(0.7);
  g.set(0.4);
  EXPECT_DOUBLE_EQ(registry.gauge("gh_battery_soc").value(), 0.4);
}

TEST(Histogram, BucketsValuesAgainstUpperBounds) {
  const double bounds[] = {1.0, 10.0, 100.0};
  Histogram h{bounds};
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bounds are inclusive upper edges)
  h.observe(5.0);    // <= 10
  h.observe(1000.0); // +Inf overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Histogram, RejectsBadBounds) {
  const double unsorted[] = {10.0, 1.0};
  const double duplicate[] = {1.0, 1.0};
  EXPECT_THROW(Histogram{std::span<const double>{}}, TelemetryError);
  EXPECT_THROW(Histogram{unsorted}, TelemetryError);
  EXPECT_THROW(Histogram{duplicate}, TelemetryError);
}

/// histogram_quantile over a live histogram's bins.
double quantile(const Histogram& h, double q) {
  return histogram_quantile(h.upper_bounds(), h.bucket_counts(), q);
}

TEST(Histogram, QuantilesInterpolateWithinTheRankBucket) {
  const double bounds[] = {10.0, 100.0};
  Histogram h{bounds};
  h.observe(5.0);    // bucket (0, 10]
  h.observe(50.0);   // bucket (10, 100]
  h.observe(60.0);   // bucket (10, 100]
  h.observe(500.0);  // +Inf overflow
  // rank(0.5) = 2 of 4 -> halfway through the (10, 100] bucket.
  EXPECT_DOUBLE_EQ(quantile(h, 0.5), 55.0);
  // rank(0.75) = 3 -> the (10, 100] bucket's upper edge.
  EXPECT_DOUBLE_EQ(quantile(h, 0.75), 100.0);
  // The +Inf bucket clamps to the largest finite bound.
  EXPECT_DOUBLE_EQ(quantile(h, 0.99), 100.0);
  EXPECT_DOUBLE_EQ(quantile(h, 1.0), 100.0);
  // q is clamped into [0, 1]; the first bucket interpolates from 0.
  EXPECT_DOUBLE_EQ(quantile(h, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(h, -1.0), 0.0);
}

TEST(Histogram, QuantileOfEmptyHistogramIsNaN) {
  const double bounds[] = {1.0};
  Histogram h{bounds};
  EXPECT_TRUE(std::isnan(quantile(h, 0.5)));
}

TEST(Histogram, QuantileMatchesTheSnapshotLevelHelper) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("gh_span_ns", std::size_t{0});
  for (int i = 1; i <= 100; ++i) h.observe(1e3 * i);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  const SnapshotEntry& entry = snap.entries.front();
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(histogram_quantile(entry.bounds, entry.buckets, q),
                     quantile(h, q));
  }
}

TEST(FormatDurationNs, ScalesUnitsForHumans) {
  EXPECT_EQ(format_duration_ns(742.0), "742ns");
  EXPECT_EQ(format_duration_ns(3'100.0), "3.1us");
  EXPECT_EQ(format_duration_ns(12'000'000.0), "12.0ms");
  EXPECT_EQ(format_duration_ns(1'500'000'000.0), "1.50s");
  EXPECT_EQ(format_duration_ns(std::nan("")), "-");
}

/// The printf spelling append_duration_ns reproduces with std::to_chars.
std::string snprintf_duration(double ns) {
  if (std::isnan(ns)) return "-";
  const double abs = std::fabs(ns);
  char buf[48];
  if (abs < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  } else if (abs < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else if (abs < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  }
  return buf;
}

TEST(FormatDurationNs, MatchesSnprintfAtEveryUnitBoundary) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {0.0, -0.0, 0.5, 1.5, 999.5, 999.49,
                                999.95e3, 999.95e6, 1e44, 1e50,
                                std::numeric_limits<double>::max(), inf,
                                -inf, std::nan("")};
  for (double boundary : {1e3, 1e6, 1e9}) {
    for (double v : {boundary, std::nextafter(boundary, 0.0),
                     std::nextafter(boundary, inf), boundary - 0.5,
                     boundary + 0.5, boundary * 10.0}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  std::mt19937_64 rng(0xD0);
  std::uniform_real_distribution<double> exponent(-3.0, 13.0);
  for (int i = 0; i < 20'000; ++i) {
    values.push_back((i % 2 == 0 ? 1.0 : -1.0) * std::pow(10.0, exponent(rng)));
  }
  for (double v : values) {
    SCOPED_TRACE(v);
    EXPECT_EQ(format_duration_ns(v), snprintf_duration(v));
  }
}

TEST(Registry, HumanDumpShowsHistogramQuantiles) {
  MetricsRegistry registry;
  registry.gauge("gh_battery_soc").set(0.75);
  Histogram& h = registry.histogram("gh_span_ns", SpanTag("plan").index());
  h.observe(500.0);
  h.observe(2'500.0);
  const std::string text = registry.snapshot().to_human();
  EXPECT_NE(text.find("gh_battery_soc"), std::string::npos);
  EXPECT_NE(text.find("0.75"), std::string::npos);
  EXPECT_NE(text.find("count=2"), std::string::npos);
  // *_ns series render as durations, including the p50/p90/p99 columns.
  EXPECT_NE(text.find("mean=1.5us"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p90="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

/// Restore one snapshot entry into a fresh registry.
void restore_entry(SnapshotEntry entry) {
  MetricsSnapshot snap;
  snap.entries.push_back(std::move(entry));
  MetricsRegistry registry;
  registry.restore(snap);
}

TEST(Registry, KindConflictThrows) {
  // Hot-path kind conflicts do not compile (counter("gh_battery_soc") is a
  // gauge); a restored snapshot is the one runtime source of a kind, and a
  // mismatch is refused.
  SnapshotEntry entry;
  entry.name = "gh_substeps_total";
  entry.kind = MetricKind::kGauge;
  EXPECT_THROW(restore_entry(entry), checkpoint::CheckpointError);
  entry.kind = MetricKind::kCounter;
  EXPECT_NO_THROW(restore_entry(entry));
}

TEST(Registry, HistogramBoundsConflictThrows) {
  SnapshotEntry entry;
  entry.name = "gh_renewable_prediction_error_w";
  entry.kind = MetricKind::kHistogram;
  entry.bounds.assign(kWattBuckets.begin(), kWattBuckets.end());
  entry.buckets.assign(kWattBuckets.size(), 0);  // one bucket short
  EXPECT_THROW(restore_entry(entry), checkpoint::CheckpointError);
  entry.buckets.push_back(0);
  EXPECT_NO_THROW(restore_entry(entry));
  entry.bounds.back() = 4000.0;
  try {
    restore_entry(entry);
    ADD_FAILURE() << "foreign histogram bounds restored";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("gh_renewable_prediction_error_w"),
              std::string::npos)
        << e.what();
  }
}

TEST(Registry, SnapshotIsSortedAndFindable) {
  MetricsRegistry registry;
  registry.counter("gh_training_epochs_total").increment(3.0);
  registry.gauge("gh_battery_soc").set(1.5);
  // Label positions follow the enum (normal, degraded, safe, recovering);
  // the snapshot orders by the label strings.
  registry.counter("gh_health_transitions_total", HealthState::kSafe)
      .increment();
  registry.counter("gh_health_transitions_total", HealthState::kDegraded)
      .increment();
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.entries.size(), 4u);
  EXPECT_EQ(snap.entries[0].name, "gh_battery_soc");
  EXPECT_EQ(snap.entries[1].name, "gh_health_transitions_total");
  EXPECT_EQ(snap.entries[1].labels, (Labels{{"to", "degraded"}}));
  EXPECT_EQ(snap.entries[2].labels, (Labels{{"to", "safe"}}));
  EXPECT_EQ(snap.entries[3].name, "gh_training_epochs_total");

  const SnapshotEntry* found =
      snap.find("gh_health_transitions_total", {{"to", "safe"}});
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->value, 1.0);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(SnapshotOrder, MatchesAStringSortOfEverySlot) {
  // Touch every series of the catalog (restore marks it touched), then the
  // precomputed export order must be the (name, labels) string sort.
  MetricsSnapshot every;
  for (const MetricDef& def : kBuiltinMetrics) {
    for (std::size_t l = 0; l < def.slots(); ++l) {
      SnapshotEntry& entry = every.entries.emplace_back();
      entry.name = def.name;
      if (!def.label_key.empty()) {
        entry.labels = {{std::string(def.label_key),
                         std::string(def.label_values[l])}};
      }
      entry.kind = def.kind;
      if (def.kind == MetricKind::kHistogram) {
        entry.bounds.assign(def.bounds.begin(), def.bounds.end());
        entry.buckets.assign(def.bounds.size() + 1, 0);
      }
    }
  }
  MetricsRegistry registry;
  registry.restore(every);
  std::vector<std::uint16_t> ranks;
  const MetricsSnapshot snap = registry.snapshot(&ranks);
  ASSERT_EQ(snap.entries.size(), catalog::kSlotCount);
  std::vector<SnapshotEntry> sorted = snap.entries;
  std::sort(sorted.begin(), sorted.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    EXPECT_EQ(snap.entries[k].name, sorted[k].name) << "entry " << k;
    EXPECT_EQ(snap.entries[k].labels, sorted[k].labels) << "entry " << k;
    EXPECT_EQ(ranks[k], k);
  }
}

TEST(SnapshotOrder, RegistrySaveWritesTheSnapshotFieldList) {
  // The checkpoint writes a registry straight from its slots; the bytes
  // must be those of the snapshot's field list, for every kind of series.
  MetricsRegistry registry;
  checkpoint::Writer empty;
  registry.save(empty);
  checkpoint::Writer empty_snapshot;
  checkpoint::save(empty_snapshot, registry.snapshot());
  EXPECT_EQ(empty.buffer(), empty_snapshot.buffer());

  registry.counter("gh_epochs_total", 2).increment(3.0);
  registry.counter("gh_substeps_total").increment(0.5);
  registry.gauge("gh_battery_soc").set(-0.0);
  registry.gauge("gh_loss_w", 7).set(1e300);
  registry.histogram("gh_span_ns", SpanTag("solve").index()).observe(4e3);
  registry.histogram("gh_span_ns", SpanTag("plan").index()).observe(1e12);
  registry.histogram("gh_renewable_prediction_error_w").observe(-3.0);
  checkpoint::Writer direct;
  registry.save(direct);
  checkpoint::Writer via_snapshot;
  checkpoint::save(via_snapshot, registry.snapshot());
  EXPECT_EQ(direct.buffer(), via_snapshot.buffer());
}

/// A snapshot built directly: the exporters take any name, labels and
/// bounds, only the registry is tied to the catalog.
TEST(Registry, PrometheusExport) {
  MetricsSnapshot snap;
  SnapshotEntry counter;
  counter.name = "gh_epochs_total";
  counter.labels = {{"case", "A"}};
  counter.value = 3.0;
  snap.entries.push_back(counter);
  const double bounds[] = {1.0, 10.0};
  Histogram h{bounds};
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  SnapshotEntry histogram;
  histogram.name = "gh_err";
  histogram.kind = MetricKind::kHistogram;
  histogram.bounds = h.upper_bounds();
  histogram.buckets.resize(h.bucket_counts().size());
  h.snapshot_into(histogram.buckets, histogram.count, histogram.sum);
  snap.entries.push_back(histogram);
  const std::string text = snap.to_prometheus();
  EXPECT_NE(text.find("# TYPE gh_epochs_total counter"), std::string::npos);
  EXPECT_NE(text.find("gh_epochs_total{case=\"A\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gh_err histogram"), std::string::npos);
  // Buckets are cumulative.
  EXPECT_NE(text.find("gh_err_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("gh_err_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("gh_err_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("gh_err_sum 55.5"), std::string::npos);
  EXPECT_NE(text.find("gh_err_count 3"), std::string::npos);
}

TEST(Registry, JsonExport) {
  MetricsSnapshot snap;
  SnapshotEntry gauge;
  gauge.name = "soc";
  gauge.labels = {{"rack", "0"}};
  gauge.kind = MetricKind::kGauge;
  gauge.value = 0.25;
  snap.entries.push_back(gauge);
  const std::string json = snap.to_json();
  EXPECT_EQ(json,
            "{\"metrics\":[{\"name\":\"soc\",\"kind\":\"gauge\","
            "\"labels\":{\"rack\":\"0\"},\"value\":0.25}]}");
}

// ---------------------------------------------------------------------------
// The builtin catalog and its pre-resolved slots.

TEST(Catalog, SortedUniqueAndWellFormed) {
  const std::span<const MetricDef> catalog = builtin_metrics();
  ASSERT_EQ(catalog.size(), 34u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    SCOPED_TRACE(std::string(catalog[i].name));
    if (i > 0) {
      EXPECT_LT(catalog[i - 1].name, catalog[i].name);
    }
    EXPECT_TRUE(catalog[i].name.starts_with("gh_"));
    EXPECT_EQ(catalog[i].kind == MetricKind::kHistogram,
              !catalog[i].bounds.empty());
    if (catalog[i].name.ends_with("_ns")) {
      EXPECT_TRUE(std::equal(catalog[i].bounds.begin(),
                             catalog[i].bounds.end(),
                             kLatencyBucketsNs.begin(),
                             kLatencyBucketsNs.end()));
    }
    const std::set<std::string_view> values(catalog[i].label_values.begin(),
                                            catalog[i].label_values.end());
    EXPECT_EQ(values.size(), catalog[i].label_values.size());
  }
}

TEST(Catalog, LabelSetsMirrorTheirEnums) {
  constexpr CounterId kEpochs = "gh_epochs_total";
  constexpr CounterId kDecisions = "gh_source_decisions_total";
  const PowerCase cases[] = {PowerCase::kRenewableSufficient,
                             PowerCase::kJointSupply, PowerCase::kBatteryOnly,
                             PowerCase::kGridFallback};
  ASSERT_EQ(kEpochs.def().label_values.size(), std::size(cases));
  for (PowerCase c : cases) {
    EXPECT_EQ(kEpochs.label_value(c), to_string(c));
    EXPECT_EQ(kDecisions.label_value(c), to_string(c));
  }

  constexpr GaugeId kLoss = "gh_loss_w";
  ASSERT_EQ(kLoss.def().label_values.size(), all_loss_buckets().size());
  for (LossBucket b : all_loss_buckets()) {
    EXPECT_EQ(kLoss.label_value(b), to_string(b));
  }

  constexpr CounterId kFaults = "gh_faults_injected_total";
  const FaultKind kinds[] = {
      FaultKind::kServerCrash,   FaultKind::kServerRecover,
      FaultKind::kDvfsStuck,     FaultKind::kDvfsOffset,
      FaultKind::kSolarDropout,  FaultKind::kSolarStuck,
      FaultKind::kGridOutage,    FaultKind::kBatteryDerate,
      FaultKind::kMonitorDropout};
  ASSERT_EQ(kFaults.def().label_values.size(), std::size(kinds));
  for (FaultKind k : kinds) {
    EXPECT_EQ(kFaults.label_value(k), to_string(k));
    EXPECT_EQ(fault_kind_from_string(kFaults.label_value(k)), k);
  }

  constexpr CounterId kTransitions = "gh_health_transitions_total";
  const HealthState states[] = {HealthState::kNormal, HealthState::kDegraded,
                                HealthState::kSafe, HealthState::kRecovering};
  ASSERT_EQ(kTransitions.def().label_values.size(), std::size(states));
  for (HealthState h : states) {
    EXPECT_EQ(kTransitions.label_value(h), to_string(h));
  }
}

TEST(Slots, FirstTouchRegistersOnlyTheTouchedSeries) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.snapshot().entries.empty());
  registry.counter("gh_epochs_total", PowerCase::kJointSupply).increment();
  registry.counter("gh_epochs_total", PowerCase::kJointSupply).increment();
  registry.histogram("gh_span_ns", SpanTag("plan").index()).observe(2'000.0);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.entries.size(), 2u);
  const SnapshotEntry* epochs =
      snap.find("gh_epochs_total", {{"case", "B(renewable+battery)"}});
  ASSERT_NE(epochs, nullptr);
  EXPECT_DOUBLE_EQ(epochs->value, 2.0);
  // Each label position is its own series.
  EXPECT_NE(&registry.counter("gh_epochs_total", PowerCase::kJointSupply),
            &registry.counter("gh_epochs_total", PowerCase::kBatteryOnly));
  const SnapshotEntry* plan = snap.find("gh_span_ns", {{"span", "plan"}});
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->bounds, std::vector<double>(kLatencyBucketsNs.begin(),
                                              kLatencyBucketsNs.end()));
  // Label positions outside the closed set are refused.
  EXPECT_THROW(registry.counter("gh_epochs_total", 4), TelemetryError);
  EXPECT_THROW(registry.counter("gh_substeps_total", 1), TelemetryError);
}

TEST(Slots, HandleTakenBeforeResetStillUpdatesTheExportedSeries) {
  MetricsRegistry registry;
  Counter& handle = registry.counter("gh_substeps_total");
  handle.increment(5.0);
  registry.reset();
  handle.increment(2.0);
  registry.counter("gh_substeps_total").increment();
  const MetricsSnapshot snap = registry.snapshot();
  const SnapshotEntry* entry = snap.find("gh_substeps_total");
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->value, 3.0);
}

TEST(Slots, HandleTakenBeforeRestoreStillUpdatesTheExportedSeries) {
  MetricsRegistry source;
  source.counter("gh_faults_injected_total", FaultKind::kGridOutage)
      .increment(4.0);
  source.gauge("gh_battery_soc").set(0.5);
  const MetricsSnapshot saved = source.snapshot();

  MetricsRegistry registry;
  Counter& faults =
      registry.counter("gh_faults_injected_total", FaultKind::kGridOutage);
  Gauge& soc = registry.gauge("gh_battery_soc");
  faults.increment(100.0);
  registry.restore(saved);
  faults.increment();
  registry.counter("gh_faults_injected_total", FaultKind::kGridOutage)
      .increment();
  const MetricsSnapshot snap = registry.snapshot();
  const SnapshotEntry* entry =
      snap.find("gh_faults_injected_total", {{"kind", "grid_outage"}});
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->value, 6.0);
  EXPECT_DOUBLE_EQ(soc.value(), 0.5);
  EXPECT_EQ(snap.entries.size(), 2u);
}

TEST(Slots, ConcurrentFirstTouchesResolveToOneSeries) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kIncrements; ++i) {
        registry.counter("gh_epochs_total", PowerCase::kBatteryOnly)
            .increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.entries.size(), 1u);
  const SnapshotEntry* entry =
      snap.find("gh_epochs_total", {{"case", "C(battery)"}});
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->value, double{kThreads} * kIncrements);
}

TEST(Slots, SnapshotDuringUpdatesSeesEveryTouchedSeries) {
  // Writers touch and update counters, gauges and histograms while the
  // main thread snapshots: nothing locks the registry, so this is the
  // case a data race would show in.
  MetricsRegistry registry;
  constexpr int kThreads = 3;
  constexpr int kUpdates = 5'000;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kUpdates; ++i) {
        registry.counter("gh_epochs_total", std::size_t(t)).increment();
        registry.gauge("gh_loss_w", std::size_t(t)).set(i);
        registry.histogram("gh_span_ns", std::size_t(t)).observe(1e3 * i);
      }
    });
  }
  std::thread reader([&registry, &done] {
    while (!done.load()) {
      const MetricsSnapshot snap = registry.snapshot();
      for (const SnapshotEntry& entry : snap.entries) {
        if (entry.kind != MetricKind::kHistogram) continue;
        std::uint64_t bucketed = 0;
        for (std::uint64_t c : entry.buckets) bucketed += c;
        EXPECT_EQ(bucketed, entry.count);  // a consistent histogram copy
      }
    }
  });
  for (std::thread& thread : threads) thread.join();
  done.store(true);
  reader.join();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.entries.size(), 3u * kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const SnapshotEntry* calls = snap.find(
        "gh_epochs_total", {{"case", std::string(catalog::kPowerCases[t])}});
    ASSERT_NE(calls, nullptr);
    EXPECT_DOUBLE_EQ(calls->value, kUpdates);
  }
}

TEST(Slots, RestoreRefusesSeriesOutsideTheCatalog) {
  SnapshotEntry unknown;
  unknown.name = "gh_rack_grant_w";
  unknown.labels = {{"rack", "0"}};
  unknown.kind = MetricKind::kGauge;
  EXPECT_THROW(restore_entry(unknown), checkpoint::CheckpointError);

  SnapshotEntry wrong_label;
  wrong_label.name = "gh_epochs_total";
  wrong_label.labels = {{"case", "Z"}};
  EXPECT_THROW(restore_entry(wrong_label), checkpoint::CheckpointError);
  wrong_label.labels = {{"kase", "grid"}};
  EXPECT_THROW(restore_entry(wrong_label), checkpoint::CheckpointError);
  wrong_label.labels = {{"case", "grid"}};
  EXPECT_NO_THROW(restore_entry(wrong_label));
}

// ---------------------------------------------------------------------------
// The trace encoder and the line buffers it writes into.

// A field is a key view plus a value view: no owned storage.
static_assert(sizeof(TraceValue) <= 24);
static_assert(sizeof(TraceField) <= 40);

/// The encoder's line for one event.
std::string encode(double t, int rack, std::string_view phase,
                   std::initializer_list<TraceField> fields) {
  std::string out;
  append_event_line(out, t, rack, phase,
                    std::span(fields.begin(), fields.size()));
  return out;
}

TEST(TraceEncoder, JsonShapeAndEscaping) {
  const std::vector<double> ratios{0.5, 0.25};
  const std::vector<double> none;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // A key only has to outlive the call: no interning, no static storage.
  std::string key = "built";
  key += "_at_runtime";
  EXPECT_EQ(encode(15.0, 2, "epoch_plan",
                   {{"case", "A"},
                    {"budget_w", 750.5},
                    {"training", false},
                    {"count", std::size_t{3}},
                    {"ratio", 3.0},
                    {"ratios", ratios},
                    {"note", "line\nbreak \"quoted\""},
                    {"nan", std::numeric_limits<double>::quiet_NaN()},
                    {"inf", kInf},
                    {"ninf", -kInf},
                    {"min", std::numeric_limits<std::int64_t>::min()},
                    {"max", std::numeric_limits<std::int64_t>::max()},
                    {"empty", none},
                    {key, true}}),
            "{\"t\":15,\"rack\":2,\"phase\":\"epoch_plan\",\"case\":\"A\","
            "\"budget_w\":750.5,\"training\":false,\"count\":3,\"ratio\":3,"
            "\"ratios\":[0.5,0.25],"
            "\"note\":\"line\\nbreak \\\"quoted\\\"\","
            "\"nan\":NaN,\"inf\":+Inf,\"ninf\":-Inf,"
            "\"min\":-9223372036854775808,\"max\":9223372036854775807,"
            "\"empty\":[],\"built_at_runtime\":true}\n");
  EXPECT_EQ(encode(-7.5, -1, "bare", {}),
            "{\"t\":-7.5,\"rack\":-1,\"phase\":\"bare\"}\n");
}

TEST(TraceEncoder, LedgerKeysAreTheBucketNamesWithAWattSuffix) {
  for (LossBucket b : all_loss_buckets()) {
    EXPECT_EQ(watts_key(b), std::string(to_string(b)) + "_w");
  }
}

TEST(TraceEncoder, WarmEmitAllocatesNothing) {
#if !GH_TELEMETRY_ENABLED
  GTEST_SKIP() << "allocation counters are compiled out (GH_TELEMETRY=OFF)";
#else
  Telemetry t;  // traced, flight recorder off
  const std::string text(40, 'x');  // past any small-string buffer
  const std::vector<double> values{1.0, 2.5, -3.0};
  const auto emit_every_kind = [&] {
    t.emit("every_kind", {{"double", 1.5},
                          {"int", 7},
                          {"int64", std::int64_t{-9}},
                          {"size", std::size_t{3}},
                          {"bool", true},
                          {"literal", "short"},
                          {"string", text},
                          {"view", std::string_view(text)},
                          {"array", values},
                          {"span", std::span<const double>(values)}});
  };
  emit_every_kind();
  emit_every_kind();
  t.trace().lines().clear();  // the barrier's hand-off keeps the capacity
  const ThreadAllocCounters before = thread_alloc_counters();
  emit_every_kind();
  const ThreadAllocCounters after = thread_alloc_counters();
  EXPECT_EQ(after.count - before.count, 0u);
  EXPECT_EQ(after.bytes - before.bytes, 0u);
  EXPECT_EQ(t.trace().size(), 1u);
#endif
}

TEST(TraceRing, CheckpointRoundTripOutlivesTheReaderBuffer) {
  TraceRing ring{16};
  const std::vector<double> ratios{0.25, 0.75};
  for (int i = 0; i < 3; ++i) {
    const TraceField fields[] = {
        {"supply_w", 100.5 + i},
        {"a_key_longer_than_fifteen_chars", i},
        {"case", "B(renewable+battery)"},
        {"flag", i % 2 == 0},
        {"ratios", ratios},
        {watts_key(LossBucket::kCurtailed), 1.5 * i}};
    ring.push(15.0 * i, i, "loss_ledger", fields);
  }
  const std::string before(ring.lines().bytes());

  TraceRing restored{16};
  {
    checkpoint::Writer w;
    checkpoint::save(w, ring);
    auto buffer = std::make_unique<std::string>(w.buffer());
    checkpoint::Reader r{*buffer};
    checkpoint::load(r, restored);
    // Overwrite, then free, every byte the lines were read from.
    buffer->assign(buffer->size(), '\xff');
    buffer.reset();
  }
  EXPECT_EQ(restored.lines().bytes(), before);
  EXPECT_EQ(restored.approx_bytes(), before.size());
  EXPECT_EQ(restored.peak_bytes(), ring.peak_bytes());
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.lines().lines().back().t, 30.0);
  EXPECT_EQ(restored.lines().lines().back().rack, 2);
  EXPECT_NE(before.find("\"curtailed_w\":3}\n"), std::string::npos)
      << before;
}

/// Loads `w` into `target`, which must refuse it with a CheckpointError
/// whose message starts with `message`.
template <class Target>
void expect_refused(const checkpoint::Writer& w, Target& target,
                    const std::string& message) {
  checkpoint::Reader r{w.buffer()};
  try {
    checkpoint::load(r, target);
    ADD_FAILURE() << "a refused payload was restored";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_EQ(std::string(e.what()).rfind(message, 0), 0u) << e.what();
  }
}

TEST(TraceRing, CheckpointRefusesMoreEventsThanTheCapacity) {
  // push() evicts only when the ring is exactly full, so a ring restored
  // above its capacity would keep growing for the whole run.
  TraceRing ring{8};
  for (int i = 0; i < 5; ++i) ring.push(15.0 * i, 0, "epoch", {});
  checkpoint::Writer w;
  checkpoint::save(w, ring);

  TraceRing small{4};
  expect_refused(w, small, "trace ring: line count 5 exceeds the capacity 4");
  TraceRing exact{5};
  checkpoint::Reader r{w.buffer()};
  checkpoint::load(r, exact);
  EXPECT_EQ(exact.size(), 5u);
}

TEST(FlightRecorder, CheckpointRefusesMoreEventsThanTheCapacity) {
  // record() evicts only when the ring is exactly full, as push() does.
  FlightRecorder recorder{8, "flightrec-unused"};
  TraceLines emitted;
  for (int i = 0; i < 5; ++i) {
    emitted.append(15.0 * i, 0, "x", {});
    recorder.record(emitted, emitted.lines().back());
  }
  checkpoint::Writer w;
  checkpoint::save(w, recorder);

  FlightRecorder small{4, "flightrec-unused"};
  expect_refused(w, small,
                 "flight recorder: line count 5 exceeds the capacity 4");
  FlightRecorder exact{5, "flightrec-unused"};
  checkpoint::Reader r{w.buffer()};
  checkpoint::load(r, exact);
  EXPECT_EQ(exact.lines().bytes(), emitted.bytes());
}

/// A TraceLines payload of one line (t, rack 0, `line`), loaded into a
/// buffer of `capacity`; returns the refusal message ("" when accepted).
std::string load_one_line(double t, std::string_view line,
                          std::size_t capacity = 8) {
  checkpoint::Writer w;
  w.seq(1);
  w.f64(t);
  w.i64(0);
  w.str(line);
  checkpoint::Reader r{w.buffer()};
  TraceLines lines;
  try {
    TraceLines::fields(lines, r, capacity, "trace ring");
  } catch (const checkpoint::CheckpointError& e) {
    return e.what();
  }
  EXPECT_EQ(lines.bytes(), line);
  return "";
}

TEST(TraceLines, LoadRefusesACountAboveTheCapacity) {
  EXPECT_EQ(load_one_line(0.0, "{}\n", 0),
            "trace ring: line count 1 exceeds the capacity 0");
  EXPECT_EQ(load_one_line(0.0, "{}\n", 1), "");
}

TEST(TraceLines, LoadRefusesALineThatIsNotOneObjectAndANewline) {
  const std::string refused =
      "trace ring: line 0 is not one JSON object and a newline";
  for (const std::string_view bad :
       {"", "\n", "{}", "{}\n\n", "{\"a\":1}\n{\"b\":2}\n", "[1]\n", "{\n}\n",
        "x{}\n", "{}x\n"}) {
    EXPECT_EQ(load_one_line(0.0, bad), refused) << bad;
  }
  EXPECT_EQ(load_one_line(0.0, "{\"t\":0,\"rack\":0,\"phase\":\"p\"}\n"), "");
}

TEST(TraceLines, LoadRefusesANonFiniteTime) {
  const std::string refused = "trace ring: line 0 has a non-finite time";
  for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(load_one_line(t, "{}\n"), refused) << t;
  }
}

TEST(TraceRing, EvictsOldestAndWarnsOnce) {
  ScopedLogCapture capture(LogLevel::kWarn);
  TraceRing ring{2};
  for (int i = 0; i < 5; ++i) ring.push(i, 0, "p", {});
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 3u);
  EXPECT_EQ(ring.lines().bytes(),
            "{\"t\":3,\"rack\":0,\"phase\":\"p\"}\n"
            "{\"t\":4,\"rack\":0,\"phase\":\"p\"}\n");
  EXPECT_DOUBLE_EQ(ring.lines().lines().front().t, 3.0);
  EXPECT_DOUBLE_EQ(ring.lines().lines().back().t, 4.0);
  // The full-ring warning fires once, not per evicted event.
  std::size_t warnings = 0;
  for (const auto& entry : capture.entries()) {
    if (entry.message.find("trace ring full") != std::string::npos) {
      ++warnings;
    }
  }
  EXPECT_EQ(warnings, 1u);

  // Eviction compacts the buffer in batches; at every capacity the ring
  // holds exactly the newest lines, oldest first.
  for (const std::size_t capacity : {1u, 3u, 5u}) {
    TraceRing wide{capacity};
    for (int i = 0; i < 23; ++i) {
      wide.push(i, 0, "p", {});
      std::string expected;
      for (int j = std::max(0, i + 1 - static_cast<int>(capacity)); j <= i;
           ++j) {
        expected += encode(j, 0, "p", {});
      }
      ASSERT_EQ(wide.lines().bytes(), expected) << capacity << " " << i;
      ASSERT_EQ(wide.approx_bytes(), expected.size());
    }
  }
}

TEST(TraceRing, WritesJsonl) {
  // Handed to the streaming sink, the ring's lines land after the schema
  // header, and the ring is left empty.
  TraceRing ring{8};
  for (int i = 0; i < 2; ++i) ring.push(15.0 * i, 0, "tick", {});
  const testtrace::ScratchDir scratch;
  const std::filesystem::path path = scratch / "ring.jsonl";
  {
    StreamingTraceSink sink({path});
    sink.push(ring.lines());
  }
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(testtrace::read_file(path),
            "{\"schema\":\"greenhetero-trace\",\"version\":2}\n"
            "{\"t\":0,\"rack\":0,\"phase\":\"tick\"}\n"
            "{\"t\":15,\"rack\":0,\"phase\":\"tick\"}\n");
}

TEST(TraceRing, RejectsZeroCapacity) {
  EXPECT_THROW(TraceRing{0}, std::invalid_argument);
}

TEST(Scope, AmbientContextInstallsNestsAndMasks) {
  EXPECT_EQ(current(), nullptr);
  EXPECT_EQ(tracer(), nullptr);  // no context: emit sites skip

  Telemetry outer_ctx;
  {
    TelemetryScope outer(&outer_ctx);
    EXPECT_EQ(current(), &outer_ctx);
    outer_ctx.set_now(Minutes{30.0});
    ASSERT_EQ(tracer(), &outer_ctx);  // a bare context keeps its events
    tracer()->emit("seen", {{"v", 1}});

    Telemetry inner_ctx;
    {
      TelemetryScope inner(&inner_ctx);
      EXPECT_EQ(current(), &inner_ctx);
    }
    EXPECT_EQ(current(), &outer_ctx);
    {
      // nullptr masks the outer context: callees see telemetry disabled.
      TelemetryScope masked(nullptr);
      EXPECT_EQ(current(), nullptr);
      EXPECT_EQ(tracer(), nullptr);
    }
    EXPECT_EQ(current(), &outer_ctx);
  }
  EXPECT_EQ(current(), nullptr);

  ASSERT_EQ(outer_ctx.trace().size(), 1u);
  EXPECT_EQ(outer_ctx.trace().lines().bytes(),
            "{\"t\":30,\"rack\":0,\"phase\":\"seen\",\"v\":1}\n");
}

TEST(Scope, UntracedContextBuildsAndKeepsNoEvents) {
  Telemetry ctx;
  ctx.set_traced(false);
  TelemetryScope scope(&ctx);
  // Metrics still record; trace emit sites see no tracer.
  EXPECT_EQ(current(), &ctx);
  EXPECT_EQ(tracer(), nullptr);
  ctx.emit("dropped", {{"v", 1}});
  EXPECT_EQ(ctx.trace().size(), 0u);
  ctx.set_traced(true);
  EXPECT_EQ(tracer(), &ctx);
}

TEST(Scope, EmitStampsRackId) {
  TelemetryConfig config;
  config.rack_id = 7;
  Telemetry t{config};
  t.emit("tick", {});
  EXPECT_EQ(t.trace().lines().lines().front().rack, 7);
  t.set_rack_id(9);
  t.emit("tock", {});
  EXPECT_EQ(t.trace().lines().lines().back().rack, 9);
  EXPECT_EQ(t.trace().lines().bytes(),
            "{\"t\":0,\"rack\":7,\"phase\":\"tick\"}\n"
            "{\"t\":0,\"rack\":9,\"phase\":\"tock\"}\n");
}

#if GH_TELEMETRY_ENABLED
TEST(SpanHistogram, RecordsIntoLatencyHistogramOfAmbientContext) {
  Telemetry ctx;  // span records and the profiler default off
  {
    TelemetryScope scope(&ctx);
    { GH_SPAN("pretrain"); }
    { GH_SPAN("pretrain"); }
  }
  const MetricsSnapshot snap = ctx.metrics().snapshot();
  const SnapshotEntry* entry = snap.find("gh_span_ns", {{"span", "pretrain"}});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, MetricKind::kHistogram);
  EXPECT_EQ(entry->count, 2u);
  EXPECT_GT(entry->sum, 0.0);
  EXPECT_EQ(snap.entries.size(), 1u);  // no other tag's series
}

TEST(SpanHistogram, NoopWithoutContext) {
  // Must not crash or allocate a registry when no scope is installed.
  GH_SPAN("pretrain");
  SUCCEED();
}
#endif  // GH_TELEMETRY_ENABLED

}  // namespace
}  // namespace greenhetero::telemetry
