// Span tracing: the SpanCollector's bounded store and depth bookkeeping,
// the Chrome trace_event export shape, and the ScopedSpan/GH_SPAN RAII
// path through the ambient Telemetry (record + mirrored "span" trace
// event when enabled, only the gh_span_ns histogram when span records are
// off, fully inert when no scope exists).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "telemetry/telemetry.h"

namespace greenhetero::telemetry {
namespace {

/// `name` must outlive the record (span names are views of static tags).
SpanRecord make_record(std::string_view name, int depth, std::int64_t begin_ns,
                       std::int64_t dur_ns) {
  SpanRecord record;
  record.name = name;
  record.depth = depth;
  record.wall_begin_ns = begin_ns;
  record.wall_dur_ns = dur_ns;
  return record;
}

TEST(SpanCollector, TracksNestingDepth) {
  SpanCollector spans;
  EXPECT_EQ(spans.open_depth(), 0);
  EXPECT_EQ(spans.begin(), 0);
  EXPECT_EQ(spans.begin(), 1);
  EXPECT_EQ(spans.open_depth(), 2);
  spans.end(make_record("plan", 1, 10, 5));
  EXPECT_EQ(spans.open_depth(), 1);
  spans.end(make_record("epoch", 0, 0, 20));
  EXPECT_EQ(spans.open_depth(), 0);
  ASSERT_EQ(spans.records().size(), 2u);
  EXPECT_EQ(spans.records()[0].name, "plan");
  EXPECT_EQ(spans.records()[1].name, "epoch");
}

TEST(SpanCollector, DropsBeyondCapacityAndCounts) {
  SpanCollector spans{2};
  for (int i = 0; i < 5; ++i) {
    spans.begin();
    spans.end(make_record(catalog::kSpanTags[i], 0, i, 1));
  }
  ASSERT_EQ(spans.records().size(), 2u);
  // Oldest kept, overflow counted.
  EXPECT_EQ(spans.records()[0].name, "epoch");
  EXPECT_EQ(spans.records()[1].name, "plan");
  EXPECT_EQ(spans.dropped(), 3u);
  spans.clear();
  EXPECT_TRUE(spans.records().empty());
  EXPECT_EQ(spans.dropped(), 0u);
  EXPECT_EQ(spans.capacity(), 2u);
}

TEST(SpanCollector, ZeroCapacityIsRejected) {
  EXPECT_THROW(SpanCollector{0}, std::invalid_argument);
}

TEST(SpanCollector, ChromeTraceExportNormalisesTimestamps) {
  SpanCollector spans;
  spans.begin();
  spans.end(make_record("plan", 0, 5'000'000, 2'000));
  spans.begin();
  spans.end(make_record("solve", 1, 5'001'000, 500));
  std::ostringstream out;
  spans.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"plan\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"solve\""), std::string::npos);
  // Microseconds relative to the earliest span: 5'000'000ns -> ts 0,
  // 5'001'000ns -> ts 1us.
  EXPECT_NE(text.find("\"ts\":0"), std::string::npos);
  EXPECT_NE(text.find("\"ts\":1"), std::string::npos);
  EXPECT_EQ(text.find("5000000"), std::string::npos)
      << "absolute steady-clock timestamps leaked into the export";
}

#if GH_TELEMETRY_ENABLED

TEST(ScopedSpan, RecordsAndMirrorsIntoTraceWhenEnabled) {
  TelemetryConfig cfg;
  cfg.spans = true;
  Telemetry telemetry{cfg};
  telemetry.set_now(Minutes{42.0});
  {
    TelemetryScope scope{&telemetry};
    GH_SPAN("epoch");
    { GH_SPAN("plan"); }
  }
  ASSERT_EQ(telemetry.spans().records().size(), 2u);
  // Spans complete innermost-first.
  const SpanRecord& inner = telemetry.spans().records()[0];
  const SpanRecord& outer = telemetry.spans().records()[1];
  EXPECT_EQ(inner.name, "plan");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(outer.name, "epoch");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_DOUBLE_EQ(outer.sim_begin_min, 42.0);
  EXPECT_GE(inner.wall_dur_ns, 0);
  EXPECT_GE(outer.wall_dur_ns, inner.wall_dur_ns);

  const auto& events = telemetry.trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, "span");
  EXPECT_EQ(events[1].phase, "span");
}

TEST(ScopedSpan, InertWithoutScopeOrWhenDisabled) {
  { GH_SPAN("epoch"); }  // no ambient context: must not crash

  Telemetry telemetry;  // spans default off
  {
    TelemetryScope scope{&telemetry};
    GH_SPAN("plan");
  }
  EXPECT_TRUE(telemetry.spans().records().empty());
  EXPECT_TRUE(telemetry.trace().events().empty());
  // The latency histogram is fed whenever a scope is installed.
  const auto snapshot = telemetry.metrics().snapshot();
  const auto* histogram = snapshot.find("gh_span_ns", {{"span", "plan"}});
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count, 1u);
}

TEST(ScopedSpan, OverflowBumpsDroppedCounter) {
  TelemetryConfig cfg;
  cfg.spans = true;
  cfg.span_capacity = 1;
  Telemetry telemetry{cfg};
  {
    TelemetryScope scope{&telemetry};
    { GH_SPAN("predict"); }
    { GH_SPAN("solve"); }
  }
  EXPECT_EQ(telemetry.spans().records().size(), 1u);
  EXPECT_EQ(telemetry.spans().dropped(), 1u);
  const auto snapshot = telemetry.metrics().snapshot();
  const auto* counter = snapshot.find("gh_spans_dropped_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->value, 1.0);
}

#endif  // GH_TELEMETRY_ENABLED

}  // namespace
}  // namespace greenhetero::telemetry
