#include "telemetry/tracing.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <stdexcept>

#include "checkpoint/serializer.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

namespace greenhetero::telemetry {

std::string trace_header_json() {
  std::string out = "{\"schema\":\"greenhetero-trace\",\"version\":";
  append_number(out, static_cast<double>(kTraceSchemaVersion));
  out += '}';
  return out;
}

void append_json_escaped(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run that needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default: {
        constexpr std::string_view kHex = "0123456789abcdef";
        out += "\\u00";
        out += kHex[static_cast<unsigned char>(c) >> 4];
        out += kHex[static_cast<unsigned char>(c) & 0xF];
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void TraceValue::append_json(std::string& out) const {
  struct Append {
    std::string& out;
    void operator()(double v) const { append_number(out, v); }
    void operator()(std::int64_t v) const {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    }
    void operator()(bool v) const { out += v ? "true" : "false"; }
    void operator()(std::string_view v) const { append_json_escaped(out, v); }
    void operator()(std::span<const double> v) const {
      out += '[';
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out += ',';
        append_number(out, v[i]);
      }
      out += ']';
    }
  };
  std::visit(Append{out}, value_);
}

void append_event_line(std::string& out, double t, int rack,
                       std::string_view phase,
                       std::span<const TraceField> fields) {
  out += "{\"t\":";
  append_number(out, t);
  out += ",\"rack\":";
  append_number(out, static_cast<double>(rack));
  out += ",\"phase\":";
  append_json_escaped(out, phase);
  for (const auto& [key, value] : fields) {
    out += ',';
    append_json_escaped(out, key);
    out += ':';
    value.append_json(out);
  }
  out += "}\n";
}

void append_truncation_footer(std::string& out, double last_sim_minutes,
                              std::uint64_t dropped) {
  const TraceField fields[] = {{"dropped", static_cast<std::int64_t>(dropped)}};
  // rack -1: a whole-trace marker, not any one rack.
  append_event_line(out, last_sim_minutes, -1, "trace_truncated", fields);
}

void TraceLines::append(double t, int rack, std::string_view phase,
                        std::span<const TraceField> fields) {
  const std::size_t begin = bytes_.size();
  append_event_line(bytes_, t, rack, phase, fields);
  lines_.push_back({t, rack, begin, bytes_.size() - begin});
}

void TraceLines::append(const TraceLines& from, const Line& line) {
  lines_.push_back({line.t, line.rack, bytes_.size(), line.size});
  bytes_.append(from.bytes_, line.begin, line.size);
}

void TraceLines::pop_front() {
  ++head_;
  if (head_ < size()) return;
  const std::size_t cut =
      head_ < lines_.size() ? lines_[head_].begin : bytes_.size();
  bytes_.erase(0, cut);
  lines_.erase(lines_.begin(),
               lines_.begin() + static_cast<std::ptrdiff_t>(head_));
  for (Line& line : lines_) line.begin -= cut;
  head_ = 0;
}

void TraceLines::clear() {
  bytes_.clear();
  lines_.clear();
  head_ = 0;
}

std::string_view TraceLines::bytes() const {
  if (empty()) return {};
  return std::string_view(bytes_).substr(lines_[head_].begin);
}

void TraceLines::move_bytes_to(std::string& out) {
  if (out.empty() && head_ == 0) {
    out.swap(bytes_);
  } else {
    out += bytes();
  }
  clear();
}

namespace {

/// One {...} object and a single trailing '\n': the shape every encoded
/// line has (escaping leaves no raw newline inside a string).
bool is_one_json_line(std::string_view line) {
  return line.size() >= 3 && line.front() == '{' &&
         line[line.size() - 2] == '}' && line.find('\n') == line.size() - 1;
}

[[noreturn]] void refuse_line(std::string_view what, std::size_t index,
                              std::string_view problem) {
  throw checkpoint::CheckpointError(std::string(what) + ": line " +
                                    std::to_string(index) + " " +
                                    std::string(problem));
}

}  // namespace

template <class Self, class Io>
void TraceLines::fields(Self& self, Io& io, std::size_t capacity,
                        std::string_view what) {
  if constexpr (!Io::kLoading) {
    io.seq(self.size());
    for (const Line& line : self.lines()) {
      io.f64(line.t);
      io.i64(line.rack);
      io.str(self.text(line));
    }
  } else {
    const std::size_t count = io.seq();
    if (count > capacity) {
      throw checkpoint::CheckpointError(
          std::string(what) + ": line count " + std::to_string(count) +
          " exceeds the capacity " + std::to_string(capacity));
    }
    self.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const double t = io.f64();
      int rack = 0;
      io.i64_in(rack, INT_MIN, INT_MAX, "trace line: rack");
      const std::string line = io.str();
      if (!std::isfinite(t)) refuse_line(what, i, "has a non-finite time");
      if (!is_one_json_line(line)) {
        refuse_line(what, i, "is not one JSON object and a newline");
      }
      self.lines_.push_back({t, rack, self.bytes_.size(), line.size()});
      self.bytes_ += line;
    }
  }
}

template void TraceLines::fields(const TraceLines&, checkpoint::Writer&,
                                 std::size_t, std::string_view);
template void TraceLines::fields(TraceLines&, checkpoint::Reader&,
                                 std::size_t, std::string_view);

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("trace ring: capacity must be positive");
  }
}

void TraceRing::push(double t, int rack, std::string_view phase,
                     std::span<const TraceField> fields) {
  if (lines_.size() == capacity_) {
    lines_.pop_front();
    ++dropped_;
    if (!warned_) {
      warned_ = true;
      GH_WARN << "trace ring full (capacity " << capacity_
              << "): oldest events are being dropped";
    }
  }
  lines_.append(t, rack, phase, fields);
  peak_bytes_ = std::max(peak_bytes_, approx_bytes());
}

std::mutex& trace_writer_mutex() {
  static std::mutex mutex;
  return mutex;
}

template <class Self, class Io>
void TraceRing::fields(Self& self, Io& io) {
  TraceLines::fields(self.lines_, io, self.capacity_, "trace ring");
  io.u64(self.dropped_);
  io.boolean(self.warned_);
  io.u64(self.peak_bytes_);
}

GH_CHECKPOINT_FIELDS(TraceRing);

}  // namespace greenhetero::telemetry
