#include "telemetry/flight_recorder.h"

#include <stdexcept>

#include "telemetry/metrics.h"
#include "util/atomic_file.h"

namespace greenhetero::telemetry {

namespace {

/// File-name-safe rendering of the trigger reason ("invariant:epu_bounds"
/// -> "invariant_epu_bounds").
std::string sanitize(std::string_view reason) {
  std::string out;
  out.reserve(reason.size());
  for (char c : reason) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += safe ? c : '_';
  }
  return out.empty() ? std::string("dump") : out;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity,
                               std::filesystem::path dir)
    : capacity_(capacity), dir_(std::move(dir)) {
  if (enabled() && capacity_ == 0) {
    throw std::invalid_argument(
        "flight recorder: capacity must be positive");
  }
}

void FlightRecorder::record(const TraceLines& from,
                            const TraceLines::Line& line) {
  if (!enabled()) return;
  if (lines_.size() == capacity_) lines_.pop_front();
  lines_.append(from, line);
}

std::filesystem::path FlightRecorder::dump(std::string_view reason,
                                           int rack_id, double sim_minutes,
                                           const MetricsSnapshot& metrics,
                                           const TraceLines& context_rows) {
  if (!enabled()) return {};
  std::filesystem::create_directories(dir_);
  const std::string stem = "flightrec-rack" + std::to_string(rack_id) +
                           "-" + std::to_string(seq_) + "-" +
                           sanitize(reason);
  ++seq_;
  const std::filesystem::path trace_path = dir_ / (stem + ".jsonl");

  const TraceField trigger[] = {{"reason", reason},
                                {"events", lines_.size()},
                                {"context_rows", context_rows.size()},
                                {"dump_index", seq_ - 1}};
  std::string buffer = trace_header_json();
  buffer += '\n';
  append_event_line(buffer, sim_minutes, rack_id, "flightrec", trigger);
  buffer += lines_.bytes();
  buffer += context_rows.bytes();
  // Temp-file + rename: a crash (or a second signal) mid-dump can never
  // leave a torn dump next to the evidence it was meant to preserve.
  try {
    util::write_file_atomic(trace_path, buffer);
    util::write_file_atomic(dir_ / (stem + "-metrics.json"),
                            metrics.to_json());
  } catch (const util::AtomicWriteError& e) {
    throw std::runtime_error("flight recorder: " + std::string(e.what()));
  }
  return trace_path;
}

}  // namespace greenhetero::telemetry
