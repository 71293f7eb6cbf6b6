// Telemetry context: one metrics registry plus one trace ring, with an
// ambient (scoped) current-context pointer so deep call sites — the Solver,
// the source selector, the database — can report without threading a handle
// through every signature.
//
// Ownership: each RackSimulator owns a Telemetry (configured through
// SimConfig::telemetry); the Fleet owns one more for coordinator-level
// events.  The simulator installs a TelemetryScope around each epoch, so
// library code called outside a simulation (unit tests, the solve CLI
// command) simply sees no context and skips reporting.
//
// Timestamps are *simulation* minutes: the owner calls set_now() as the sim
// clock advances and emit() stamps events with it.  Wall time never enters
// the trace (goldens stay byte-stable); wall time only lands in the
// gh_span_ns latency histogram via the GH_SPAN spans (span.h), and only in a
// context whose wall times have a reader (Telemetry::timed).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/flight_recorder.h"
#include "telemetry/ledger.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/rollup.h"
#include "telemetry/span.h"
#include "telemetry/tracing.h"
#include "util/units.h"

namespace greenhetero::telemetry {

struct TelemetryConfig {
  /// Master switch: when false the owner installs no scope and every
  /// telemetry call in library code is a no-op.
  bool enabled = true;
  /// Trace ring capacity in lines.  The run loop empties the ring at every
  /// epoch barrier, so it holds one epoch's lines (~6 per rack).
  std::size_t trace_capacity = 1 << 15;
  /// Stamped on every event; the fleet coordinator overrides it per rack.
  int rack_id = 0;
  /// Opt-in: per-epoch EPU loss-attribution ledger (`loss_ledger` trace
  /// events + gh_loss_* metrics).  Off by default so the fault-free golden
  /// traces change only when the feature is requested.
  bool loss_ledger = false;
  /// Opt-in: keep every GH_SPAN as a span record, mirrored into the trace
  /// as a "span" event and exportable as a Chrome trace_event file.  A run
  /// with span records is timed (Telemetry::timed), so its gh_span_ns
  /// histogram is fed too.  Off by default: span events carry wall
  /// nanoseconds, which would break the byte-determinism of golden traces.
  bool spans = false;
  /// Opt-in: the in-process profiler (profiler.h).  Every GH_SPAN scope
  /// then attributes wall ns and allocation bytes/counts to its phase path,
  /// and root spans thread-CPU ns.  Independent of `spans` (profiling
  /// needs no span records), and like it makes the run timed
  /// (Telemetry::timed); off by default — the *_ns outputs are wall-clock
  /// and sit outside byte-identity guarantees, like span events.
  bool profile = false;
  /// Opt-in: fixed-window rollup aggregation in minutes (0 disables).
  /// Each closed window lands as a "rollup" trace event and is retained
  /// for the --rollup-out series file.
  double rollup_window_min = 0.0;
  /// Opt-in: flight-recorder dump directory (empty disables).  While set,
  /// the last `flightrec_capacity` lines are mirrored into a small ring
  /// that the owner dumps on health degradation, invariant violations and
  /// aborts.
  std::string flightrec_dir;
  std::size_t flightrec_capacity = 256;
};

/// Compile/runtime facts `greenhetero info` reports so users can tell why
/// --trace-out/--spans-out produce nothing in a -DGH_TELEMETRY=OFF build.
struct BuildInfo {
  /// GH_SPAN compiled in?  (Keeps its historical name: the JSON key is
  /// carried by committed bench/TRAJECTORY.jsonl rows.)
  bool probes_enabled = false;
  int trace_schema_version = 0;
  std::size_t builtin_metric_count = 0;
};

[[nodiscard]] BuildInfo build_info();

/// build_info() as one compact JSON object.  `greenhetero info --json` and
/// the benchdiff trajectory rows share it, so every trajectory entry records
/// which build configuration produced its numbers.
[[nodiscard]] std::string build_info_json();

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {});

  [[nodiscard]] const TelemetryConfig& config() const { return config_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] TraceRing& trace() { return trace_; }
  [[nodiscard]] const TraceRing& trace() const { return trace_; }
  [[nodiscard]] LossLedger& loss() { return loss_; }
  [[nodiscard]] const LossLedger& loss() const { return loss_; }
  [[nodiscard]] SpanCollector& spans() { return spans_; }
  [[nodiscard]] const SpanCollector& spans() const { return spans_; }
  [[nodiscard]] Rollup& rollup() { return rollup_; }
  [[nodiscard]] const Rollup& rollup() const { return rollup_; }
  [[nodiscard]] FlightRecorder& flightrec() { return flightrec_; }
  [[nodiscard]] const FlightRecorder& flightrec() const {
    return flightrec_;
  }
  [[nodiscard]] Profiler& profiler() { return profiler_; }
  [[nodiscard]] const Profiler& profiler() const { return profiler_; }

  [[nodiscard]] int rack_id() const { return config_.rack_id; }
  void set_rack_id(int id) { config_.rack_id = id; }

  /// Current simulation time used to stamp events.
  void set_now(Minutes now) { now_ = now; }
  [[nodiscard]] Minutes now() const { return now_; }

  /// Whether emitted events have a reader.  A bare context keeps its
  /// events; RackSimulator and Fleet clear this unless the run streams its
  /// trace or mirrors it into a flight recorder.  Emit sites test it (via
  /// tracer()) before gathering their fields, so a run nothing will read
  /// encodes and keeps no trace.
  [[nodiscard]] bool traced() const { return traced_; }
  void set_traced(bool traced) { traced_ = traced; }

  /// Whether span wall times have a reader: the profiler, span records, a
  /// metrics file or a checkpoint (RunConfig::keeps_wall_times).  A bare
  /// context is timed; RackSimulator and Fleet set it beside traced().  A
  /// GH_SPAN on an untimed context (via timer()) reads no clock, pushes no
  /// frame and feeds no gh_span_ns series.  Set it only while no span is
  /// open.
  [[nodiscard]] bool timed() const { return timed_; }
  void set_timed(bool timed) { timed_ = timed; }

  /// Encode a trace event stamped with now() and rack_id() into the ring
  /// (and copy the line into the flight recorder when that feature is on);
  /// dropped when the context is not traced().  The fields only have to
  /// outlive the call.
  void emit(std::string_view phase, std::span<const TraceField> fields);
  void emit(std::string_view phase, std::initializer_list<TraceField> fields) {
    emit(phase, std::span(fields.begin(), fields.size()));
  }

  /// Open span `tag` on this context's open-span stack (ScopedSpan's
  /// constructor; span.h).
  void open_span(SpanTag tag);
  /// Close the innermost open span and feed its gh_span_ns series, its
  /// span record and its profile node (ScopedSpan's destructor).
  void close_span();

  /// Checkpoint every sim-clock-driven component: metrics (as a snapshot),
  /// trace ring, loss ledger, rollup, flight recorder and the current
  /// timestamp.  Spans and the profiler are deliberately skipped — both
  /// carry wall-clock nanoseconds and are excluded from byte-identity
  /// guarantees anyway.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  TelemetryConfig config_;
  MetricsRegistry metrics_;
  TraceRing trace_;
  LossLedger loss_;
  SpanCollector spans_;
  Rollup rollup_;
  FlightRecorder flightrec_;
  Profiler profiler_;
  Minutes now_{0.0};
  bool traced_ = true;
  bool timed_ = true;

  /// One open GH_SPAN: everything its close hands the three consumers.
  struct OpenSpan {
    SpanTag tag;
    std::uint32_t node;  ///< profile node (Profiler::kRoot when off)
    double sim_begin_min;
    ThreadAllocCounters allocs_begin{};
    std::int64_t wall_begin_ns = 0;
  };
  std::vector<OpenSpan> open_spans_;
};

/// The ambient context, or nullptr outside any TelemetryScope.
[[nodiscard]] Telemetry* current();

/// The ambient context's loss ledger when the feature is enabled
/// (TelemetryConfig::loss_ledger), else nullptr — the one-line guard every
/// contributing layer uses before posting.
[[nodiscard]] LossLedger* loss_ledger();

/// The ambient context when its events have a reader (Telemetry::traced),
/// else nullptr — the guard every emit site uses before building an event.
[[nodiscard]] Telemetry* tracer();

/// The ambient context when its span wall times have a reader
/// (Telemetry::timed), else nullptr — the guard ScopedSpan opens on.
[[nodiscard]] Telemetry* timer();

/// RAII installer for the ambient context.  Nestable; installing nullptr
/// masks any outer context (callees see telemetry disabled).
class TelemetryScope {
 public:
  explicit TelemetryScope(Telemetry* telemetry);
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  Telemetry* previous_;
};

}  // namespace greenhetero::telemetry

namespace greenhetero {

// Lifted into the parent namespace so classes with a `telemetry()` accessor
// (which shadows the nested namespace name in class scope) can still name
// the types.
using telemetry::MetricsSnapshot;
using telemetry::Telemetry;
using telemetry::TelemetryConfig;
using telemetry::TelemetryScope;

}  // namespace greenhetero
