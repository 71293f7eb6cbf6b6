// Fault flight recorder: a small always-on full-detail ring per rack.
//
// Rollups keep long runs cheap by throwing detail away; the flight
// recorder keeps the detail that matters.  While enabled (a dump directory
// is configured) every encoded trace line is also copied into a small ring
// of lines, and when something goes wrong — HealthTracker leaves normal,
// an InvariantViolation fires, the run aborts — the owner dumps the ring to
// <dir>/flightrec-rack<N>-<seq>-<reason>.jsonl: a valid v2 trace
// (`greenhetero analyze` reads it directly) consisting of the schema
// header, one "flightrec" event describing the trigger, the last
// `capacity` lines verbatim, and the caller's extra context rows (the
// active fault plan encoded as "fault_plan_row" lines).  The metrics
// snapshot at dump time lands next to it as <same stem>-metrics.json.
//
// Dumps are per rack and land in distinct files, so fleet racks stepping
// on pool threads can dump concurrently without coordination.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "telemetry/tracing.h"

namespace greenhetero::telemetry {

struct MetricsSnapshot;

class FlightRecorder {
 public:
  /// `dir` empty = disabled: record() and dump() become no-ops so the
  /// default path costs one branch per line.
  FlightRecorder(std::size_t capacity, std::filesystem::path dir);

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// The last `capacity` lines, oldest first.
  [[nodiscard]] const TraceLines& lines() const { return lines_; }
  [[nodiscard]] int dumps() const { return seq_; }

  /// Copy `line` of `from` into the ring (oldest evicted beyond capacity).
  void record(const TraceLines& from, const TraceLines::Line& line);

  /// Write the dump files; returns the trace path, or an empty path when
  /// disabled.  `context_rows` are appended after the ring (e.g. the
  /// fault plan as "fault_plan_row" lines); `sim_minutes` stamps the
  /// "flightrec" trigger event.  Creates the directory if needed.
  std::filesystem::path dump(std::string_view reason, int rack_id,
                             double sim_minutes,
                             const MetricsSnapshot& metrics,
                             const TraceLines& context_rows);

  /// Checkpoint the ring's lines (TraceLines::fields: loading refuses more
  /// lines than the capacity, since record() only evicts at exactly the
  /// capacity) and the dump sequence number (capacity and directory come
  /// from configuration).
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    TraceLines::fields(self.lines_, io, self.capacity_, "flight recorder");
    io.i64(self.seq_);
  }

 private:
  std::size_t capacity_;
  std::filesystem::path dir_;
  TraceLines lines_;
  int seq_ = 0;
};

}  // namespace greenhetero::telemetry
