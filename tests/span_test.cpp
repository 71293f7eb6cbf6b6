// Span tracing: the SpanCollector's bounded store, the Chrome trace_event
// export shape, and the ScopedSpan/GH_SPAN RAII path through the ambient
// Telemetry's open-span stack (record depth = stack depth, record +
// mirrored "span" trace event when enabled, only the gh_span_ns histogram
// when span records are off, fully inert when no scope exists or the
// context is not timed).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

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

TEST(SpanCollector, DropsBeyondCapacityAndCounts) {
  SpanCollector spans{2};
  for (int i = 0; i < 5; ++i) {
    spans.add(make_record(catalog::kSpanTags[i], 0, i, 1));
  }
  ASSERT_EQ(spans.records().size(), 2u);
  // Oldest kept, overflow counted.
  EXPECT_EQ(spans.records()[0].name, "epoch");
  EXPECT_EQ(spans.records()[1].name, "plan");
  EXPECT_EQ(spans.dropped(), 3u);
}

TEST(SpanCollector, ZeroCapacityIsRejected) {
  EXPECT_THROW(SpanCollector{0}, std::invalid_argument);
}

TEST(SpanCollector, ChromeTraceExportNormalisesTimestamps) {
  SpanCollector spans;
  spans.add(make_record("plan", 0, 5'000'000, 2'000));
  spans.add(make_record("solve", 1, 5'001'000, 500));
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

  const TraceLines& lines = telemetry.trace().lines();
  ASSERT_EQ(lines.size(), 2u);
  for (const TraceLines::Line& line : lines.lines()) {
    EXPECT_NE(lines.text(line).find("\"phase\":\"span\""),
              std::string_view::npos)
        << lines.text(line);
  }
}

TEST(ScopedSpan, DepthIsTheOpenSpanStackDepth) {
  TelemetryConfig cfg;
  cfg.spans = true;
  Telemetry telemetry{cfg};
  {
    TelemetryScope scope{&telemetry};
    GH_SPAN("epoch");
    {
      GH_SPAN("plan");
      { GH_SPAN("solve"); }
    }
    { GH_SPAN("substeps"); }
  }
  const std::vector<SpanRecord>& records = telemetry.spans().records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].name, "solve");
  EXPECT_EQ(records[0].depth, 2);
  EXPECT_EQ(records[1].name, "plan");
  EXPECT_EQ(records[1].depth, 1);
  EXPECT_EQ(records[2].name, "substeps");
  EXPECT_EQ(records[2].depth, 1);
  EXPECT_EQ(records[3].name, "epoch");
  EXPECT_EQ(records[3].depth, 0);
}

TEST(ScopedSpan, InertWithoutScopeOrWhenDisabled) {
  { GH_SPAN("epoch"); }  // no ambient context: must not crash

  Telemetry telemetry;  // spans default off
  {
    TelemetryScope scope{&telemetry};
    GH_SPAN("plan");
  }
  EXPECT_TRUE(telemetry.spans().records().empty());
  EXPECT_EQ(telemetry.trace().size(), 0u);
  // A bare context is timed: its latency histogram is fed.
  const auto snapshot = telemetry.metrics().snapshot();
  const auto* histogram = snapshot.find("gh_span_ns", {{"span", "plan"}});
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count, 1u);
}

TEST(ScopedSpan, UntimedContextFeedsNothing) {
  TelemetryConfig cfg;
  cfg.spans = true;
  cfg.profile = true;
  Telemetry telemetry{cfg};
  telemetry.set_timed(false);
  {
    TelemetryScope scope{&telemetry};
    GH_SPAN("epoch");
    { GH_SPAN("plan"); }
  }
  EXPECT_EQ(timer(), nullptr);
  EXPECT_TRUE(telemetry.spans().records().empty());
  EXPECT_EQ(telemetry.trace().size(), 0u);
  EXPECT_TRUE(telemetry.profiler().report().empty());
  EXPECT_TRUE(telemetry.metrics().snapshot().entries.empty());
}

TEST(ScopedSpan, OverflowBumpsDroppedCounter) {
  TelemetryConfig cfg;
  cfg.spans = true;
  Telemetry telemetry{cfg};
  telemetry.set_traced(false);  // records only, no mirrored trace events
  {
    TelemetryScope scope{&telemetry};
    for (std::size_t i = 0; i <= SpanCollector::kCapacity; ++i) {
      GH_SPAN("predict");
    }
  }
  EXPECT_EQ(telemetry.spans().records().size(), SpanCollector::kCapacity);
  EXPECT_EQ(telemetry.spans().dropped(), 1u);
  const auto snapshot = telemetry.metrics().snapshot();
  const auto* counter = snapshot.find("gh_spans_dropped_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->value, 1.0);
}

#endif  // GH_TELEMETRY_ENABLED

}  // namespace
}  // namespace greenhetero::telemetry
