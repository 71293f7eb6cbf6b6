// Fault flight recorder: a small always-on full-detail ring per rack.
//
// Rollups keep long runs cheap by throwing detail away; the flight
// recorder keeps the detail that matters.  While enabled (a dump directory
// is configured) every trace event is also copied into a small ring, and
// when something goes wrong — HealthTracker leaves normal, an
// InvariantViolation fires, the run aborts — the owner dumps the ring to
// <dir>/flightrec-rack<N>-<seq>-<reason>.jsonl: a valid v2 trace
// (`greenhetero analyze` reads it directly) consisting of the schema
// header, one "flightrec" event describing the trigger, the last
// `capacity` events verbatim, and the caller's extra context rows (the
// active fault plan rendered as "fault_plan_row" events).  The metrics
// snapshot at dump time lands next to it as <same stem>-metrics.json.
//
// Dumps are per rack and land in distinct files, so fleet racks stepping
// on pool threads can dump concurrently without coordination.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/tracing.h"

namespace greenhetero::telemetry {

struct MetricsSnapshot;

class FlightRecorder {
 public:
  /// `dir` empty = disabled: record() and dump() become no-ops so the
  /// default path costs one branch per event.
  FlightRecorder(std::size_t capacity, std::filesystem::path dir);

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::deque<TraceEvent>& ring() const { return ring_; }
  [[nodiscard]] int dumps() const { return seq_; }

  /// Copy one event into the ring (oldest evicted beyond capacity).
  void record(const TraceEvent& event);

  /// Write the dump files; returns the trace path, or an empty path when
  /// disabled.  `context_rows` are appended after the ring (e.g. the
  /// fault plan as "fault_plan_row" events); `sim_minutes` stamps the
  /// "flightrec" trigger event.  Creates the directory if needed.
  std::filesystem::path dump(std::string_view reason, int rack_id,
                             double sim_minutes,
                             const MetricsSnapshot& metrics,
                             const std::vector<TraceEvent>& context_rows);

  /// Checkpoint the ring contents and the dump sequence number (capacity
  /// and directory come from configuration).  Loading refuses more events
  /// than the capacity: record() only evicts at exactly the capacity.
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.objects(self.ring_, self.capacity_, "flight recorder: event count");
    io.i64(self.seq_);
  }

 private:
  std::size_t capacity_;
  std::filesystem::path dir_;
  std::deque<TraceEvent> ring_;
  int seq_ = 0;
};

}  // namespace greenhetero::telemetry
