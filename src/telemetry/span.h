// The one instrumentation primitive: nested, tagged control-loop spans.
//
//   void GreenHeteroController::plan_epoch(...) {
//     GH_SPAN("plan");
//     ...
//   }
//
// The tag is a catalog::kSpanTags entry (metrics.h), resolved at compile
// time: a misspelt tag does not compile.  A span reads the steady clock
// once when it opens and once when it closes, and hands that wall duration
// to up to three consumers of the ambient Telemetry:
//
//   - the latency histogram gh_span_ns{span=tag}, whenever a telemetry
//     scope is installed (one slot load plus the observation);
//   - a SpanRecord and a mirrored "span" trace event, when
//     TelemetryConfig::spans is on.  A record carries both clocks
//     (simulation minutes and wall nanoseconds) plus its nesting depth, so
//     the predict -> select-source -> solve -> enforce -> substeps
//     hierarchy reconstructs as a flamegraph; the collector exports it in
//     the Chrome trace_event JSON format (chrome://tracing, Perfetto);
//   - the profiler frame, when TelemetryConfig::profile is on
//     (profiler.h), so a histogram's count and sum equal the calls and
//     wall_ns summed over the profile paths ending in its tag, exactly.
//
// Span records stay opt-in (default off) because wall time would break
// golden-trace byte-determinism.  -DGH_TELEMETRY=OFF compiles every GH_SPAN
// to (void)0, so hot paths carry no clock reads at all in stripped builds.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"

namespace greenhetero::telemetry {

/// A span tag, found in catalog::kSpanTags at compile time: its position
/// is the gh_span_ns label position, its name a view of the static tag.
class SpanTag {
 public:
  template <std::size_t N>
  consteval SpanTag(const char (&name)[N]) : index_(find(name)) {}

  [[nodiscard]] constexpr std::size_t index() const { return index_; }
  [[nodiscard]] constexpr std::string_view name() const {
    return catalog::kSpanTags[index_];
  }

 private:
  static consteval std::size_t find(std::string_view name) {
    for (std::size_t i = 0; i < catalog::kSpanTags.size(); ++i) {
      if (catalog::kSpanTags[i] == name) return i;
    }
    throw "not a span tag (catalog::kSpanTags)";
  }

  std::size_t index_;
};

struct SpanRecord {
  std::string_view name;  ///< a span tag (static storage)
  int rack_id = 0;
  int depth = 0;  ///< nesting level at begin (0 = root)
  double sim_begin_min = 0.0;
  double sim_end_min = 0.0;
  std::int64_t wall_begin_ns = 0;  ///< steady-clock, normalised on export
  std::int64_t wall_dur_ns = 0;
};

/// Bounded store of completed spans (oldest kept; overflow counted, not
/// stored — a capped collector never reallocates under the control loop).
class SpanCollector {
 public:
  explicit SpanCollector(std::size_t capacity = std::size_t{1} << 16);

  /// Open a span: returns the depth the span runs at.
  int begin();
  /// Close the innermost span and store `record` (drops when full).
  void end(SpanRecord record);

  [[nodiscard]] int open_depth() const { return open_depth_; }
  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void clear();

  void write_chrome_trace(std::ostream& out) const;
  void save_chrome_trace(const std::filesystem::path& path) const;

 private:
  std::size_t capacity_;
  int open_depth_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<SpanRecord> records_;
};

/// Chrome trace_event export ("X" complete events, microsecond timestamps
/// normalised to the earliest span; pid = rack id).  Free function so the
/// fleet can merge several racks' streams into one file.
void write_chrome_trace(std::ostream& out, std::span<const SpanRecord> spans);

}  // namespace greenhetero::telemetry

#if GH_TELEMETRY_ENABLED

namespace greenhetero::telemetry {

class Telemetry;  // defined in telemetry/telemetry.h
class Profiler;   // defined in telemetry/profiler.h

/// RAII span tied to the ambient Telemetry; inert when there is no ambient
/// context.  Span records and the profiler frame are independent: `record_`
/// is set only when span records are on, `profiler_` only when profiling
/// is; the histogram is fed either way.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanTag tag);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Telemetry* sink_ = nullptr;
  Profiler* profiler_ = nullptr;
  SpanTag tag_;
  bool record_ = false;
  int depth_ = 0;
  double sim_begin_min_ = 0.0;
  std::int64_t wall_begin_ns_ = 0;
};

}  // namespace greenhetero::telemetry

#define GH_SPAN_CONCAT2(a, b) a##b
#define GH_SPAN_CONCAT(a, b) GH_SPAN_CONCAT2(a, b)
#define GH_SPAN(tag)                                  \
  ::greenhetero::telemetry::ScopedSpan GH_SPAN_CONCAT( \
      gh_span_, __LINE__) { tag }

#else  // !GH_TELEMETRY_ENABLED

#define GH_SPAN(tag) ((void)0)

#endif
