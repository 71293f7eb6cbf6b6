// Structured epoch tracing.
//
// A trace event is one decision record: sim-clock timestamp (minutes), rack
// id, a phase name ("epoch_plan", "source_select", ...) and a key/value
// payload.  It exists only as its encoded JSONL line: Telemetry::emit
// writes {"t":..,"rack":..,"phase":..,<fields>} plus '\n' straight into the
// context's ring (a TraceLines buffer, oldest evicted at capacity, drops
// counted), and the epoch barrier hands those bytes to the streaming sink
// (stream_sink.h).  The flight recorder, the rollup series file and the
// truncation footer write through the same encoder, so every reader sees
// the same bytes.
//
// Field keys and values are views (TraceField): they only have to outlive
// the emit call, so a field costs no allocation and no key is interned.
//
// Events are keyed on the *simulation* clock and never carry wall time, so a
// trace is a pure function of (scenario, seed): two runs of the same
// configuration are byte-identical and goldens stay diffable.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace greenhetero::telemetry {

/// Version of the JSONL trace schema.  Bumped when the header or the shape
/// of pinned event payloads changes; `greenhetero analyze` refuses traces
/// whose header declares a version it does not understand.
///
/// History: v1 = PR 1 headerless event stream; v2 = header line added,
/// optional "loss_ledger" and "span" events; still v2: optional "rollup",
/// "flightrec", "fault_plan_row" and "trace_truncated" events (purely
/// additive — every v2 reader skips phases it does not know).
inline constexpr int kTraceSchemaVersion = 2;

/// The self-identifying header line every JSONL trace starts with:
///   {"schema":"greenhetero-trace","version":2}
[[nodiscard]] std::string trace_header_json();

/// One payload value, viewed rather than owned: double, integer, boolean,
/// string or double array.  The alternative decides the spelling: a double
/// goes through append_number (%.0f / %.10g, so 1e15 prints as 1e+15), an
/// integer prints exactly, a boolean as true/false.  Strings and arrays
/// must outlive the emit call that encodes them.
class TraceValue {
 public:
  TraceValue(double v) : value_(v) {}
  TraceValue(int v) : value_(std::int64_t{v}) {}
  TraceValue(std::int64_t v) : value_(v) {}
  TraceValue(std::size_t v) : value_(static_cast<std::int64_t>(v)) {}
  TraceValue(bool v) : value_(v) {}
  TraceValue(std::string_view v) : value_(v) {}
  TraceValue(const char* v) : value_(std::string_view(v)) {}
  TraceValue(const std::string& v) : value_(std::string_view(v)) {}
  TraceValue(std::span<const double> v) : value_(v) {}
  TraceValue(const std::vector<double>& v)
      : value_(std::span<const double>(v)) {}
  TraceValue() = default;

  void append_json(std::string& out) const;

 private:
  std::variant<double, std::int64_t, bool, std::string_view,
               std::span<const double>>
      value_;
};

struct TraceField {
  std::string_view key;
  TraceValue value;
};

/// The encoder: append {"t":..,"rack":..,"phase":..,<fields>} and '\n' to
/// `out`.  Numbers go through append_number, strings through
/// append_json_escaped; nothing is allocated beyond `out`'s growth.
void append_event_line(std::string& out, double t, int rack,
                       std::string_view phase,
                       std::span<const TraceField> fields);

/// Encoded JSONL lines, each tagged with its event's merge key (sim time,
/// rack id; its index here is its emission order).  The trace ring, the
/// flight recorder and the streaming sink's reorder buffer all hold their
/// events this way; the sink orders the tags and writes the bytes.
class TraceLines {
 public:
  struct Line {
    double t = 0.0;
    int rack = 0;
    std::size_t begin = 0;  ///< offset of the line in the byte buffer
    std::size_t size = 0;   ///< line length, its '\n' included
  };

  /// Encode one event (append_event_line) and tag it.
  void append(double t, int rack, std::string_view phase,
              std::span<const TraceField> fields);
  /// Copy one line of `from`, bytes and tag.
  void append(const TraceLines& from, const Line& line);
  /// Forget the oldest line.  The bytes move only once the forgotten
  /// prefix is as long as what is left, so eviction is amortised O(1).
  void pop_front();
  void clear();

  [[nodiscard]] std::size_t size() const { return lines_.size() - head_; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Oldest to newest.
  [[nodiscard]] std::span<const Line> lines() const {
    return std::span(lines_).subspan(head_);
  }
  [[nodiscard]] std::string_view text(const Line& line) const {
    return std::string_view(bytes_).substr(line.begin, line.size);
  }
  /// Every buffered line's bytes, oldest first.
  [[nodiscard]] std::string_view bytes() const;

  /// Move the buffered bytes into `out` and leave this empty: a swap when
  /// `out` is empty and nothing was popped (so the two buffers trade their
  /// capacity), else an append.
  void move_bytes_to(std::string& out);

  /// Checkpoint layout: a count, then (f64 t, i64 rack, str line) per line.
  /// Loading refuses, with a CheckpointError naming `what`, a count above
  /// `capacity`, a line that is not one {...} object followed by a single
  /// '\n', and a non-finite t.
  template <class Self, class Io>
  static void fields(Self& self, Io& io, std::size_t capacity,
                     std::string_view what);

 private:
  std::string bytes_;
  std::vector<Line> lines_;
  std::size_t head_ = 0;  ///< lines_[0, head_) were popped
};

/// Append the `trace_truncated` footer line the streaming sink writes when a
/// ring evicted events: {"t":..,"rack":-1,"phase":"trace_truncated",
/// "dropped":N}.  `greenhetero analyze` prints a loud warning (and fails a
/// --diff gate) when it sees one.
void append_truncation_footer(std::string& out, double last_sim_minutes,
                              std::uint64_t dropped);

/// Fixed-capacity ring of encoded trace lines.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  /// Encode one event into the ring, evicting the oldest line when full.
  void push(double t, int rack, std::string_view phase,
            std::span<const TraceField> fields);
  /// Buffered lines.
  [[nodiscard]] std::size_t size() const { return lines_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Lines evicted because the ring was full (warned once per ring).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// The buffered lines.  The epoch barrier hands them to the streaming
  /// sink, which empties them (or empties them itself when nothing reads
  /// the trace), so the ring never grows past one epoch; the drop counter
  /// is cumulative and survives.
  [[nodiscard]] const TraceLines& lines() const { return lines_; }
  [[nodiscard]] TraceLines& lines() { return lines_; }
  /// Bytes currently buffered (exact), and their high-water mark since
  /// construction; a run's peak is its largest epoch's lines.
  [[nodiscard]] std::size_t approx_bytes() const {
    return lines_.bytes().size();
  }
  [[nodiscard]] std::size_t peak_bytes() const { return peak_bytes_; }

  /// Checkpoint the buffered lines (TraceLines::fields, bounded by the
  /// configured capacity) plus the cumulative drop/peak accounting.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  std::size_t capacity_;
  TraceLines lines_;
  std::uint64_t dropped_ = 0;
  bool warned_ = false;
  std::size_t peak_bytes_ = 0;
};

/// JSON string escaping shared with the metrics exporters.
void append_json_escaped(std::string& out, std::string_view s);

/// Process-wide lock the span and rollup exporters take around their final
/// stream write.  Exporters assemble their complete output in memory first
/// and emit it in one locked write, so two racks flushing concurrently (to
/// the same stream or interleaved stdio) can never tear a line in half.
[[nodiscard]] std::mutex& trace_writer_mutex();

}  // namespace greenhetero::telemetry
