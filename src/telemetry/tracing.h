// Structured epoch tracing.
//
// TraceEvent is one decision record: sim-clock timestamp (minutes), rack id,
// a phase name ("epoch_plan", "source_select", ...) and a key/value payload.
// Events are buffered in a fixed-capacity ring (oldest evicted, drops
// counted) until the epoch barrier hands them to the streaming sink
// (stream_sink.h), which writes one JSON object per line (JSONL).
//
// Field keys are TraceKeys: views of static storage, never owned per event,
// so a field costs 56 bytes (16-byte key + 40-byte value) and no allocation
// unless its value is a long string or an array.
//
// Events are keyed on the *simulation* clock and never carry wall time, so a
// trace is a pure function of (scenario, seed): two runs of the same
// configuration are byte-identical and goldens stay diffable.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
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

/// A trace field key: a view of a string with static storage duration.
///
/// Built from a string literal (checked at compile time: the consteval
/// constructor rejects anything that is not a constant array with static
/// storage), or through intern() for keys assembled at runtime — the
/// `<bucket>_w` / `health_<state>` rollup and ledger keys and keys read
/// back from a checkpoint.  Interned strings live for the rest of the
/// process.  There is deliberately no constructor from std::string or
/// std::string_view, so a key can never dangle.
class TraceKey {
 public:
  constexpr TraceKey() = default;
  template <std::size_t N>
  consteval TraceKey(const char (&literal)[N]) : view_(literal) {}

  /// The process-wide copy of `key` (created on first use; thread-safe).
  [[nodiscard]] static TraceKey intern(std::string_view key);

  [[nodiscard]] constexpr std::string_view view() const { return view_; }

  /// Checkpointed as its text, re-interned on load.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);
  friend constexpr bool operator==(TraceKey a, std::string_view b) {
    return a.view_ == b;
  }

 private:
  constexpr explicit TraceKey(std::string_view interned) : view_(interned) {}
  std::string_view view_;
};

/// One payload value: double, integer, boolean, string or double array.
/// The alternatives' indices are the checkpoint tags (0..4), so they keep
/// their order.
class TraceValue {
 public:
  TraceValue(double v) : value_(v) {}
  TraceValue(int v) : value_(std::int64_t{v}) {}
  TraceValue(std::int64_t v) : value_(v) {}
  TraceValue(std::size_t v) : value_(static_cast<std::int64_t>(v)) {}
  TraceValue(bool v) : value_(v) {}
  TraceValue(std::string v) : value_(std::move(v)) {}
  TraceValue(std::string_view v) : value_(std::string(v)) {}
  TraceValue(const char* v) : value_(std::string(v)) {}
  TraceValue(std::vector<double> v) : value_(std::move(v)) {}
  /// 0.0; a checkpoint load overwrites it.
  TraceValue() = default;

  void append_json(std::string& out) const;

  /// Approximate heap footprint of the payload (string/array contents);
  /// the ring's byte accounting adds the fixed per-event overhead itself.
  [[nodiscard]] std::size_t approx_bytes() const;

  /// The payload when it holds that alternative; 0 / false / empty
  /// otherwise.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<double>& as_array() const;

  /// Checkpoint support: one tag byte (the alternative index), then the
  /// payload.
  /// Checkpointed as a kind tag (the alternative's index), then the value.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  std::variant<double, std::int64_t, bool, std::string, std::vector<double>>
      value_;
};

struct TraceField {
  TraceKey key;
  TraceValue value;
};

using TraceFields = std::vector<TraceField>;

struct TraceEvent {
  double sim_minutes = 0.0;
  int rack_id = 0;
  std::string phase;
  TraceFields payload;  ///< the key/value fields

  /// Single-line JSON object: {"t":..,"rack":..,"phase":..,<fields>}.
  [[nodiscard]] std::string to_json() const;
  /// to_json() appended to `out` in place.
  void append_json(std::string& out) const;
  [[nodiscard]] const TraceValue* field(std::string_view key) const;
  /// Approximate memory held by this event (fixed overhead + payloads;
  /// keys are shared static strings and count only through the field
  /// size); the basis of gh_trace_buffer_bytes and the streaming sink's
  /// queue accounting, so "bounded memory" means bounded in these units.
  [[nodiscard]] std::size_t approx_bytes() const;

  template <class Self, class Io>
  static void fields(Self& self, Io& io);
};

/// Encoded JSONL lines, each tagged with its event's merge key (sim time,
/// rack id; its index here is its emission order).  The fleet's shards
/// encode their racks' drained events into these on the pool threads, and
/// the streaming sink orders the tags and writes the bytes.
struct TraceLines {
  struct Line {
    double t = 0.0;
    int rack = 0;
    std::size_t begin = 0;  ///< offset of the line in `bytes`
    std::size_t size = 0;   ///< line length, its '\n' included
  };
  std::string bytes;
  std::vector<Line> lines;

  /// Encode `event` as TraceEvent::to_json() plus '\n' and tag it.
  void append(const TraceEvent& event);
  /// Copy one line of `from`, bytes and tag.
  void append(const TraceLines& from, const Line& line);
  [[nodiscard]] bool empty() const { return lines.empty(); }
  void clear() {
    bytes.clear();
    lines.clear();
  }
};

/// The `trace_truncated` footer the streaming sink appends when a ring
/// evicted events: {"t":..,"rack":-1,"phase":"trace_truncated","dropped":N}.
/// `greenhetero analyze` prints a loud warning (and fails a --diff gate)
/// when it sees one — drops used to be counted but invisible in the file.
[[nodiscard]] TraceEvent make_truncation_footer(double last_sim_minutes,
                                                std::uint64_t dropped);

/// Fixed-capacity ring buffer of trace events.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  void push(TraceEvent event);
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events evicted because the ring was full (warned once per ring).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Oldest to newest.
  [[nodiscard]] const std::deque<TraceEvent>& events() const {
    return events_;
  }
  /// Approximate bytes currently buffered, and the high-water mark since
  /// construction/clear() — drain() resets the former but not the latter,
  /// so a run's peak is its largest epoch's events.
  [[nodiscard]] std::size_t approx_bytes() const { return approx_bytes_; }
  [[nodiscard]] std::size_t peak_bytes() const { return peak_bytes_; }

  /// Move all buffered events out (oldest to newest) and empty the ring.
  /// The drop counter is cumulative and survives; the epoch driver calls
  /// this at every epoch barrier so the ring never grows past one epoch.
  [[nodiscard]] std::vector<TraceEvent> drain();
  void clear();

  /// Checkpoint buffered events plus the cumulative drop/byte accounting
  /// (capacity comes from configuration).
  /// Loading refuses more events than the capacity: push() only evicts at
  /// exactly the capacity, so such a ring would grow for the whole run.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  std::size_t capacity_;
  std::deque<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
  bool warned_ = false;
  std::size_t approx_bytes_ = 0;
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
