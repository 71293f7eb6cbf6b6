#include "telemetry/tracing.h"

#include <algorithm>
#include <charconv>
#include <set>
#include <stdexcept>
#include <type_traits>

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

static_assert(sizeof(TraceValue) <= 40, "TraceValue: keep the field compact");
static_assert(sizeof(TraceField) <= 56, "TraceField: keep the field compact");

TraceKey TraceKey::intern(std::string_view key) {
  // Leaked on purpose: interned keys must outlive every static that may
  // still hold events (flight recorders, rings) during shutdown.
  static auto* const mutex = new std::mutex;
  static auto* const keys = new std::set<std::string, std::less<>>;
  const std::lock_guard<std::mutex> lock(*mutex);
  auto it = keys->find(key);
  if (it == keys->end()) it = keys->emplace(key).first;
  return TraceKey(std::string_view(*it));
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
    void operator()(const std::string& v) const {
      append_json_escaped(out, v);
    }
    void operator()(const std::vector<double>& v) const {
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

std::size_t TraceValue::approx_bytes() const {
  if (const auto* str = std::get_if<std::string>(&value_)) return str->size();
  if (const auto* array = std::get_if<std::vector<double>>(&value_)) {
    return array->size() * sizeof(double);
  }
  return 0;
}

double TraceValue::as_double() const {
  const auto* v = std::get_if<double>(&value_);
  return v != nullptr ? *v : 0.0;
}

std::int64_t TraceValue::as_int() const {
  const auto* v = std::get_if<std::int64_t>(&value_);
  return v != nullptr ? *v : 0;
}

bool TraceValue::as_bool() const {
  const auto* v = std::get_if<bool>(&value_);
  return v != nullptr && *v;
}

const std::string& TraceValue::as_string() const {
  static const std::string kEmpty;
  const auto* v = std::get_if<std::string>(&value_);
  return v != nullptr ? *v : kEmpty;
}

const std::vector<double>& TraceValue::as_array() const {
  static const std::vector<double> kEmpty;
  const auto* v = std::get_if<std::vector<double>>(&value_);
  return v != nullptr ? *v : kEmpty;
}

std::string TraceEvent::to_json() const {
  std::string out;
  append_json(out);
  return out;
}

void TraceEvent::append_json(std::string& out) const {
  out += "{\"t\":";
  append_number(out, sim_minutes);
  out += ",\"rack\":";
  append_number(out, static_cast<double>(rack_id));
  out += ",\"phase\":";
  append_json_escaped(out, phase);
  for (const auto& [key, value] : payload) {
    out += ',';
    append_json_escaped(out, key.view());
    out += ':';
    value.append_json(out);
  }
  out += '}';
}

void TraceLines::append(const TraceEvent& event) {
  const std::size_t begin = bytes.size();
  event.append_json(bytes);
  bytes += '\n';
  lines.push_back({event.sim_minutes, event.rack_id, begin,
                   bytes.size() - begin});
}

void TraceLines::append(const TraceLines& from, const Line& line) {
  lines.push_back({line.t, line.rack, bytes.size(), line.size});
  bytes.append(from.bytes, line.begin, line.size);
}

const TraceValue* TraceEvent::field(std::string_view key) const {
  for (const auto& [k, v] : payload) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t TraceEvent::approx_bytes() const {
  // Fixed structural overhead plus every owned string/array payload.  An
  // estimate (allocator slack is ignored) but a *stable* one: the bounded-
  // memory CI cap and the bench high-water mark are measured in it.
  std::size_t bytes = sizeof(TraceEvent) + phase.size();
  for (const TraceField& field : payload) {
    bytes += sizeof(TraceField) + field.value.approx_bytes();
  }
  return bytes;
}

TraceEvent make_truncation_footer(double last_sim_minutes,
                                  std::uint64_t dropped) {
  TraceEvent footer;
  footer.sim_minutes = last_sim_minutes;
  footer.rack_id = -1;  // whole-trace marker, not any one rack
  footer.phase = "trace_truncated";
  footer.payload.emplace_back(TraceKey("dropped"),
                             static_cast<std::int64_t>(dropped));
  return footer;
}

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("trace ring: capacity must be positive");
  }
}

void TraceRing::push(TraceEvent event) {
  if (events_.size() == capacity_) {
    approx_bytes_ -= events_.front().approx_bytes();
    events_.pop_front();
    ++dropped_;
    if (!warned_) {
      warned_ = true;
      GH_WARN << "trace ring full (capacity " << capacity_
              << "): oldest events are being dropped";
    }
  }
  approx_bytes_ += event.approx_bytes();
  peak_bytes_ = std::max(peak_bytes_, approx_bytes_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRing::drain() {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (TraceEvent& event : events_) {
    out.push_back(std::move(event));
  }
  events_.clear();
  approx_bytes_ = 0;
  return out;
}

std::mutex& trace_writer_mutex() {
  static std::mutex mutex;
  return mutex;
}

void TraceRing::clear() {
  events_.clear();
  dropped_ = 0;
  warned_ = false;
  approx_bytes_ = 0;
  peak_bytes_ = 0;
}

template <class Self, class Io>
void TraceKey::fields(Self& self, Io& io) {
  if constexpr (Io::kLoading) {
    self = intern(io.str());
  } else {
    io.str(self.view());
  }
}

namespace {

/// Alternative I of `v`; a load (non-const `v`) first makes it the held one.
template <std::size_t I, class Variant>
auto& alternative(Variant& v) {
  if constexpr (!std::is_const_v<Variant>) v.template emplace<I>();
  return std::get<I>(v);
}

}  // namespace

template <class Self, class Io>
void TraceValue::fields(Self& self, Io& io) {
  constexpr auto kinds = std::variant_size_v<decltype(self.value_)>;
  auto kind = static_cast<std::uint8_t>(self.value_.index());
  io.enum_u8(kind, kinds, "trace value: kind tag");
  switch (kind) {
    case 0:
      return io.f64(alternative<0>(self.value_));
    case 1:
      return io.i64(alternative<1>(self.value_));
    case 2:
      return io.boolean(alternative<2>(self.value_));
    case 3:
      return io.str(alternative<3>(self.value_));
    case 4:
      return io.f64_array(alternative<4>(self.value_));
  }
}

template <class Self, class Io>
void TraceEvent::fields(Self& self, Io& io) {
  io.f64(self.sim_minutes);
  io.i64(self.rack_id);
  io.str(self.phase);
  io.seq(self.payload, [&io](auto& field) {
    io.object(field.key);
    io.object(field.value);
  });
}

GH_CHECKPOINT_FIELDS(TraceEvent);

template <class Self, class Io>
void TraceRing::fields(Self& self, Io& io) {
  io.objects(self.events_, self.capacity_, "trace ring: event count");
  io.u64(self.dropped_);
  io.boolean(self.warned_);
  io.u64(self.approx_bytes_);
  io.u64(self.peak_bytes_);
}

GH_CHECKPOINT_FIELDS(TraceRing);

}  // namespace greenhetero::telemetry
