// Telemetry subsystem: metrics registry semantics, exporters, trace ring
// and the ambient context scope.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "checkpoint/serializer.h"
#include "core/health.h"
#include "faults/fault_plan.h"
#include "power/power_bus.h"
#include "telemetry/ledger.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracing.h"
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

TEST(Counter, AccumulatesAndResets) {
  MetricsRegistry registry;
  Counter& c = registry.named_counter("epochs");
  c.increment();
  c.increment(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Re-fetch returns the same series.
  EXPECT_DOUBLE_EQ(registry.named_counter("epochs").value(), 3.5);
  registry.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(registry.series_count(), 1u);
}

TEST(Gauge, HoldsLastValue) {
  MetricsRegistry registry;
  Gauge& g = registry.named_gauge("soc");
  g.set(0.7);
  g.set(0.4);
  EXPECT_DOUBLE_EQ(registry.named_gauge("soc").value(), 0.4);
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

TEST(Histogram, QuantilesInterpolateWithinTheRankBucket) {
  const double bounds[] = {10.0, 100.0};
  Histogram h{bounds};
  h.observe(5.0);    // bucket (0, 10]
  h.observe(50.0);   // bucket (10, 100]
  h.observe(60.0);   // bucket (10, 100]
  h.observe(500.0);  // +Inf overflow
  // rank(0.5) = 2 of 4 -> halfway through the (10, 100] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 55.0);
  // rank(0.75) = 3 -> the (10, 100] bucket's upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 100.0);
  // The +Inf bucket clamps to the largest finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // q is clamped into [0, 1]; the first bucket interpolates from 0.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), 0.0);
}

TEST(Histogram, QuantileOfEmptyHistogramIsNaN) {
  const double bounds[] = {1.0};
  Histogram h{bounds};
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(Histogram, QuantileMatchesTheSnapshotLevelHelper) {
  Histogram h{latency_buckets_ns()};
  for (int i = 1; i <= 100; ++i) h.observe(1e3 * i);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(
        histogram_quantile(h.upper_bounds(), h.bucket_counts(), q),
        h.quantile(q));
  }
}

TEST(FormatDurationNs, ScalesUnitsForHumans) {
  EXPECT_EQ(format_duration_ns(742.0), "742ns");
  EXPECT_EQ(format_duration_ns(3'100.0), "3.1us");
  EXPECT_EQ(format_duration_ns(12'000'000.0), "12.0ms");
  EXPECT_EQ(format_duration_ns(1'500'000'000.0), "1.50s");
  EXPECT_EQ(format_duration_ns(std::nan("")), "-");
}

TEST(Registry, HumanDumpShowsHistogramQuantiles) {
  MetricsRegistry registry;
  registry.named_gauge("gh_battery_soc").set(0.75);
  const double bounds[] = {1e3, 1e6};
  Histogram& h = registry.named_histogram("gh_plan_epoch_ns", bounds);
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

TEST(Registry, LabelsSplitSeriesAndInterningIsShared) {
  MetricsRegistry registry;
  registry.named_counter("epochs", {{"case", "A"}}).increment();
  registry.named_counter("epochs", {{"case", "B"}}).increment(2.0);
  EXPECT_EQ(registry.series_count(), 2u);
  // "epochs", "case", "A", "B" — repeated strings are interned once.
  EXPECT_EQ(registry.interned_strings(), 4u);
  registry.named_counter("epochs", {{"case", "A"}}).increment();
  EXPECT_EQ(registry.series_count(), 2u);
  EXPECT_EQ(registry.interned_strings(), 4u);
  EXPECT_DOUBLE_EQ(registry.named_counter("epochs", {{"case", "A"}}).value(), 2.0);
}

TEST(Registry, KindConflictThrows) {
  MetricsRegistry registry;
  registry.named_counter("x");
  EXPECT_THROW(registry.named_gauge("x"), TelemetryError);
  EXPECT_THROW(registry.named_histogram("x", latency_buckets_ns()), TelemetryError);
  // Same name with different labels is a different series: allowed.
  EXPECT_NO_THROW(registry.named_gauge("x", {{"k", "v"}}));
}

TEST(Registry, HistogramBoundsConflictThrows) {
  MetricsRegistry registry;
  const double a[] = {1.0, 2.0};
  const double b[] = {1.0, 3.0};
  registry.named_histogram("h", a);
  EXPECT_NO_THROW(registry.named_histogram("h", a));
  EXPECT_THROW(registry.named_histogram("h", b), TelemetryError);
}

TEST(Registry, SnapshotIsSortedAndFindable) {
  MetricsRegistry registry;
  registry.named_counter("zeta").increment(3.0);
  registry.named_gauge("alpha").set(1.5);
  registry.named_counter("mid", {{"case", "B"}}).increment();
  registry.named_counter("mid", {{"case", "A"}}).increment();
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.entries.size(), 4u);
  EXPECT_EQ(snap.entries[0].name, "alpha");
  EXPECT_EQ(snap.entries[1].name, "mid");
  EXPECT_EQ(snap.entries[1].labels, (Labels{{"case", "A"}}));
  EXPECT_EQ(snap.entries[2].labels, (Labels{{"case", "B"}}));
  EXPECT_EQ(snap.entries[3].name, "zeta");

  const SnapshotEntry* found = snap.find("mid", {{"case", "B"}});
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->value, 1.0);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Registry, PrometheusExport) {
  MetricsRegistry registry;
  registry.named_counter("gh_epochs_total", {{"case", "A"}}).increment(3.0);
  const double bounds[] = {1.0, 10.0};
  Histogram& h = registry.named_histogram("gh_err", bounds);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  const std::string text = registry.snapshot().to_prometheus();
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
  MetricsRegistry registry;
  registry.named_gauge("soc", {{"rack", "0"}}).set(0.25);
  const std::string json = registry.snapshot().to_json();
  EXPECT_EQ(json,
            "{\"metrics\":[{\"name\":\"soc\",\"kind\":\"gauge\","
            "\"labels\":{\"rack\":\"0\"},\"value\":0.25}]}");
}

// ---------------------------------------------------------------------------
// The builtin catalog and its pre-resolved slots.

TEST(Catalog, SortedUniqueAndWellFormed) {
  const std::span<const MetricDef> catalog = builtin_metrics();
  ASSERT_EQ(catalog.size(), 38u);
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
                             latency_buckets_ns().begin(),
                             latency_buckets_ns().end()));
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
  EXPECT_EQ(registry.series_count(), 0u);
  registry.counter("gh_epochs_total", PowerCase::kJointSupply).increment();
  registry.counter("gh_epochs_total", PowerCase::kJointSupply).increment();
  registry.histogram("gh_span_ns", SpanTag("plan").index()).observe(2'000.0);
  EXPECT_EQ(registry.series_count(), 2u);
  const MetricsSnapshot snap = registry.snapshot();
  const SnapshotEntry* epochs =
      snap.find("gh_epochs_total", {{"case", "B(renewable+battery)"}});
  ASSERT_NE(epochs, nullptr);
  EXPECT_DOUBLE_EQ(epochs->value, 2.0);
  // A slot and the string-keyed resolver name the same series.
  EXPECT_EQ(&registry.counter("gh_epochs_total", PowerCase::kJointSupply),
            &registry.named_counter("gh_epochs_total",
                                    {{"case", "B(renewable+battery)"}}));
  const SnapshotEntry* plan = snap.find("gh_span_ns", {{"span", "plan"}});
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->bounds, std::vector<double>(latency_buckets_ns().begin(),
                                              latency_buckets_ns().end()));
  // Label positions outside the closed set are refused.
  EXPECT_THROW(registry.counter("gh_epochs_total", 4), TelemetryError);
  EXPECT_THROW(registry.counter("gh_substeps_total", 1), TelemetryError);
}

TEST(Slots, SlotHonoursAnEarlierNamedRegistrationOfAnotherKind) {
  MetricsRegistry registry;
  registry.named_gauge("gh_substeps_total").set(1.0);
  EXPECT_THROW(registry.counter("gh_substeps_total"), TelemetryError);
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
  EXPECT_EQ(registry.series_count(), 1u);
  const MetricsSnapshot snap = registry.snapshot();
  const SnapshotEntry* entry =
      snap.find("gh_epochs_total", {{"case", "C(battery)"}});
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->value, double{kThreads} * kIncrements);
}

// ---------------------------------------------------------------------------
// Trace keys and the compact field layout.

static_assert(!std::is_constructible_v<TraceKey, std::string>);
static_assert(!std::is_constructible_v<TraceKey, std::string_view>);
static_assert(!std::is_constructible_v<TraceKey, const char*>);
static_assert(sizeof(TraceValue) <= 40);
static_assert(sizeof(TraceField) <= 56);

TEST(TraceKey, InternReturnsOneStablePerProcessCopy) {
  std::string built = "health_";
  built += "safe";
  const TraceKey a = TraceKey::intern(built);
  built.assign("overwritten");
  const TraceKey b = TraceKey::intern("health_safe");
  EXPECT_EQ(a.view(), "health_safe");
  EXPECT_EQ(a.view().data(), b.view().data());
  EXPECT_EQ(watts_key(LossBucket::kGridCap).view(), "grid_cap_w");
}

TEST(TraceRing, CheckpointRoundTripOutlivesTheReaderBuffer) {
  TraceRing ring{16};
  for (int i = 0; i < 3; ++i) {
    TraceEvent event;
    event.sim_minutes = 15.0 * i;
    event.rack_id = i;
    event.phase = "loss_ledger";
    event.fields = {{"supply_w", 100.5 + i},
                    {"a_key_longer_than_fifteen_chars", i},
                    {"case", "B(renewable+battery)"},
                    {"flag", i % 2 == 0},
                    {"ratios", std::vector<double>{0.25, 0.75}}};
    event.fields.emplace_back(watts_key(LossBucket::kCurtailed), 1.5 * i);
    ring.push(std::move(event));
  }
  std::ostringstream before;
  ring.write_jsonl(before);

  TraceRing restored{16};
  {
    checkpoint::Writer w;
    ring.save_state(w);
    auto buffer = std::make_unique<std::string>(w.buffer());
    checkpoint::Reader r{*buffer};
    restored.load_state(r);
    // Overwrite, then free, every byte the keys were read from.
    buffer->assign(buffer->size(), '\xff');
    buffer.reset();
  }
  std::ostringstream after;
  restored.write_jsonl(after);
  EXPECT_EQ(after.str(), before.str());
  EXPECT_EQ(restored.approx_bytes(), ring.approx_bytes());
  ASSERT_NE(restored.events().back().field("curtailed_w"), nullptr);
  EXPECT_DOUBLE_EQ(restored.events().back().field("curtailed_w")->as_double(),
                   3.0);
}

TEST(TraceEvent, JsonShapeAndEscaping) {
  TraceEvent event;
  event.sim_minutes = 15.0;
  event.rack_id = 2;
  event.phase = "epoch_plan";
  event.fields = {{"case", "A"},
                  {"budget_w", 750.5},
                  {"training", false},
                  {"count", std::size_t{3}},
                  {"ratios", std::vector<double>{0.5, 0.25}},
                  {"note", "line\nbreak \"quoted\""}};
  EXPECT_EQ(event.to_json(),
            "{\"t\":15,\"rack\":2,\"phase\":\"epoch_plan\",\"case\":\"A\","
            "\"budget_w\":750.5,\"training\":false,\"count\":3,"
            "\"ratios\":[0.5,0.25],"
            "\"note\":\"line\\nbreak \\\"quoted\\\"\"}");
  ASSERT_NE(event.field("budget_w"), nullptr);
  EXPECT_DOUBLE_EQ(event.field("budget_w")->as_double(), 750.5);
  EXPECT_EQ(event.field("nope"), nullptr);
}

TEST(TraceRing, EvictsOldestAndWarnsOnce) {
  ScopedLogCapture capture(LogLevel::kWarn);
  TraceRing ring{2};
  for (int i = 0; i < 5; ++i) {
    TraceEvent event;
    event.sim_minutes = i;
    event.phase = "p";
    ring.push(std::move(event));
  }
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 3u);
  EXPECT_DOUBLE_EQ(ring.events().front().sim_minutes, 3.0);
  EXPECT_DOUBLE_EQ(ring.events().back().sim_minutes, 4.0);
  // The full-ring warning fires once, not per evicted event.
  std::size_t warnings = 0;
  for (const auto& entry : capture.entries()) {
    if (entry.message.find("trace ring full") != std::string::npos) {
      ++warnings;
    }
  }
  EXPECT_EQ(warnings, 1u);

  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
}

TEST(TraceRing, WritesJsonl) {
  TraceRing ring{8};
  for (int i = 0; i < 2; ++i) {
    TraceEvent event;
    event.sim_minutes = 15.0 * i;
    event.phase = "tick";
    ring.push(std::move(event));
  }
  std::ostringstream out;
  ring.write_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"schema\":\"greenhetero-trace\",\"version\":2}\n"
            "{\"t\":0,\"rack\":0,\"phase\":\"tick\"}\n"
            "{\"t\":15,\"rack\":0,\"phase\":\"tick\"}\n");
}

TEST(TraceRing, RejectsZeroCapacity) {
  EXPECT_THROW(TraceRing{0}, std::invalid_argument);
}

TEST(Scope, AmbientContextInstallsNestsAndMasks) {
  EXPECT_EQ(current(), nullptr);
  emit("ignored", {});  // no context: a safe no-op

  Telemetry outer_ctx;
  {
    TelemetryScope outer(&outer_ctx);
    EXPECT_EQ(current(), &outer_ctx);
    outer_ctx.set_now(Minutes{30.0});
    emit("seen", {{"v", 1}});

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
      emit("masked", {});
    }
    EXPECT_EQ(current(), &outer_ctx);
  }
  EXPECT_EQ(current(), nullptr);

  ASSERT_EQ(outer_ctx.trace().size(), 1u);
  const TraceEvent& event = outer_ctx.trace().events().front();
  EXPECT_EQ(event.phase, "seen");
  EXPECT_DOUBLE_EQ(event.sim_minutes, 30.0);
}

TEST(Scope, EmitStampsRackId) {
  TelemetryConfig config;
  config.rack_id = 7;
  Telemetry t{config};
  t.emit("tick", {});
  EXPECT_EQ(t.trace().events().front().rack_id, 7);
  t.set_rack_id(9);
  t.emit("tock", {});
  EXPECT_EQ(t.trace().events().back().rack_id, 9);
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
