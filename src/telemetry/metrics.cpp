#include "telemetry/metrics.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <tuple>

#include "checkpoint/serializer.h"
#include "telemetry/tracing.h"
#include "util/atomic_file.h"

namespace greenhetero::telemetry {

void append_number(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
  } else if (std::isinf(value)) {
    out += value > 0.0 ? "+Inf" : "-Inf";
  } else if (value == 0.0 && std::signbit(value)) {
    out += "-0";  // "%.0f" keeps the sign of -0.0
  } else {
    char buf[32];
    char* end = buf;
    if (std::nearbyint(value) == value && std::fabs(value) < 1e15) {
      // "%.0f" of an integral value below 1e15 is that integer, exactly;
      // the integer conversion spells it fastest.
      end = std::to_chars(buf, buf + sizeof(buf),
                          static_cast<std::int64_t>(value))
                .ptr;
    } else {
      end = std::to_chars(buf, buf + sizeof(buf), value,
                          std::chars_format::general, 10)  // "%.10g"
                .ptr;
    }
    out.append(buf, end);
  }
}

std::string format_number(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()),
      counts_(bounds_.size() + 1, 0) {
  if (bounds_.empty()) {
    throw TelemetryError("histogram: needs at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw TelemetryError("histogram: bounds must be strictly increasing");
  }
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::lock_guard<std::mutex> lock(*mutex_);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

void Histogram::snapshot_into(std::vector<std::uint64_t>& buckets,
                              std::uint64_t& count, double& sum) const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  buckets = counts_;
  count = count_;
  sum = sum_;
}

void Histogram::reset() {
  const std::lock_guard<std::mutex> lock(*mutex_);
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

void Histogram::restore(const std::vector<std::uint64_t>& buckets,
                        std::uint64_t count, double sum) {
  const std::lock_guard<std::mutex> lock(*mutex_);
  counts_ = buckets;
  count_ = count;
  sum_ = sum;
}

double histogram_quantile(std::span<const double> bounds,
                          std::span<const std::uint64_t> buckets, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : buckets) total += c;
  if (total == 0 || bounds.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const auto below = static_cast<double>(cumulative);
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) return bounds.back();  // +Inf bucket: clamp
    const double upper = bounds[i];
    const double lower =
        i == 0 ? std::min(0.0, upper) : bounds[i - 1];
    const double frac = std::clamp(
        (rank - below) / static_cast<double>(buckets[i]), 0.0, 1.0);
    return lower + (upper - lower) * frac;
  }
  return bounds.back();
}

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

void append_duration_ns(std::string& out, double ns) {
  if (std::isnan(ns)) {
    out += '-';
    return;
  }
  const double abs = std::fabs(ns);
  const auto [scaled, precision, unit] =
      abs < 1e3   ? std::tuple{ns, 0, "ns"}
      : abs < 1e6 ? std::tuple{ns / 1e3, 1, "us"}
      : abs < 1e9 ? std::tuple{ns / 1e6, 1, "ms"}
                  : std::tuple{ns / 1e9, 2, "s"};
  // "%.<precision>f<unit>" into a 48-byte buffer: a duration beyond ~1e44 s
  // keeps only its first 47 characters, as snprintf truncated it.
  char buf[400];
  char* end = std::to_chars(buf, buf + sizeof(buf), scaled,
                            std::chars_format::fixed, precision)
                  .ptr;
  for (const char* c = unit; *c != '\0'; ++c) *end++ = *c;
  out.append(buf, std::min<std::size_t>(end - buf, 47));
}

std::string format_duration_ns(double ns) {
  std::string out;
  append_duration_ns(out, ns);
  return out;
}

namespace {

/// `{k="v",...}` (nothing for an empty set); a Prometheus histogram bucket
/// adds `le="<bound>"` (`le_inf` spells the last one "+Inf").
void append_label_set(std::string& out, const Labels& labels,
                      const double* le = nullptr, bool le_inf = false) {
  if (labels.empty() && le == nullptr && !le_inf) return;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += value;
    out += '"';
  }
  if (le != nullptr || le_inf) {
    if (!first) out += ',';
    out += "le=\"";
    if (le != nullptr) {
      append_number(out, *le);
    } else {
      out += "+Inf";
    }
    out += '"';
  }
  out += '}';
}

/// Length of append_label_set(labels) without building it.
std::size_t label_set_size(const Labels& labels) {
  if (labels.empty()) return 0;
  std::size_t size = 2 + (labels.size() - 1);  // braces and commas
  for (const auto& [key, value] : labels) {
    size += key.size() + value.size() + 3;  // key="value"
  }
  return size;
}

/// Appends encode(out, k) for every k in [0, n).  With a fan-out, runs of
/// consecutive indices encode into their own strings concurrently and are
/// joined in index order, so the bytes never depend on the fan-out.
template <typename Encode>
void append_encoded(std::string& out, std::size_t n,
                    const util::ForEach& for_each, const Encode& encode) {
  constexpr std::size_t kPerPiece = 256;
  const std::size_t pieces = (n + kPerPiece - 1) / kPerPiece;
  if (!for_each || pieces <= 1) {
    for (std::size_t k = 0; k < n; ++k) encode(out, k);
    return;
  }
  std::vector<std::string> parts(pieces);
  for_each(pieces, [&](std::size_t p) {
    const std::size_t end = std::min(n, (p + 1) * kPerPiece);
    for (std::size_t k = p * kPerPiece; k < end; ++k) encode(parts[p], k);
  });
  std::size_t total = out.size();
  for (const std::string& part : parts) total += part.size();
  out.reserve(total);
  for (const std::string& part : parts) out += part;
}

void append_prometheus(std::string& out, const SnapshotEntry& e,
                       const SnapshotEntry* previous) {
  if (previous == nullptr || previous->name != e.name) {
    out += "# TYPE ";
    out += e.name;
    out += ' ';
    out += to_string(e.kind);
    out += '\n';
  }
  if (e.kind == MetricKind::kHistogram) {
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < e.buckets.size(); ++b) {
      cumulative += e.buckets[b];
      out += e.name;
      out += "_bucket";
      const bool finite = b < e.bounds.size();
      append_label_set(out, e.labels, finite ? &e.bounds[b] : nullptr,
                       !finite);
      out += ' ';
      append_number(out, static_cast<double>(cumulative));
      out += '\n';
    }
    out += e.name;
    out += "_sum";
    append_label_set(out, e.labels);
    out += ' ';
    append_number(out, e.sum);
    out += '\n';
    out += e.name;
    out += "_count";
    append_label_set(out, e.labels);
    out += ' ';
    append_number(out, static_cast<double>(e.count));
    out += '\n';
  } else {
    out += e.name;
    append_label_set(out, e.labels);
    out += ' ';
    append_number(out, e.value);
    out += '\n';
  }
}

void append_json(std::string& out, const SnapshotEntry& e) {
  out += "{\"name\":";
  append_json_escaped(out, e.name);
  out += ",\"kind\":";
  append_json_escaped(out, to_string(e.kind));
  if (!e.labels.empty()) {
    out += ",\"labels\":{";
    bool first = true;
    for (const auto& [key, value] : e.labels) {
      if (!first) out += ',';
      first = false;
      append_json_escaped(out, key);
      out += ':';
      append_json_escaped(out, value);
    }
    out += '}';
  }
  if (e.kind == MetricKind::kHistogram) {
    out += ",\"count\":";
    append_number(out, static_cast<double>(e.count));
    out += ",\"sum\":";
    append_number(out, e.sum);
    out += ",\"bounds\":[";
    for (std::size_t b = 0; b < e.bounds.size(); ++b) {
      if (b > 0) out += ',';
      append_number(out, e.bounds[b]);
    }
    out += "],\"buckets\":[";
    for (std::size_t b = 0; b < e.buckets.size(); ++b) {
      if (b > 0) out += ',';
      append_number(out, static_cast<double>(e.buckets[b]));
    }
    out += ']';
  } else {
    out += ",\"value\":";
    append_number(out, e.value);
  }
  out += '}';
}

/// "3.1us" for *_ns series, plain append_number otherwise.
void append_human_value(std::string& out, const std::string& name,
                        double value) {
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
    append_duration_ns(out, value);
  } else {
    append_number(out, value);
  }
}

void append_human(std::string& out, const SnapshotEntry& e,
                  std::size_t name_width) {
  const std::size_t row_start = out.size();
  out += e.name;
  append_label_set(out, e.labels);
  out.append(name_width + 2 - (out.size() - row_start), ' ');
  const std::string_view kind = to_string(e.kind);
  out += kind;
  out.append(11 - kind.size(), ' ');
  if (e.kind == MetricKind::kHistogram) {
    out += "count=";
    append_number(out, static_cast<double>(e.count));
    out += " mean=";
    append_human_value(
        out, e.name,
        e.count > 0 ? e.sum / static_cast<double>(e.count) : 0.0);
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"p50", 0.5},
          {"p90", 0.9},
          {"p99", 0.99}}) {
      out += ' ';
      out += label;
      out += '=';
      append_human_value(out, e.name,
                         histogram_quantile(e.bounds, e.buckets, q));
    }
  } else {
    append_human_value(out, e.name, e.value);
  }
  out += '\n';
}

}  // namespace

const SnapshotEntry* MetricsSnapshot::find(std::string_view name,
                                           const Labels& labels) const {
  for (const SnapshotEntry& e : entries) {
    if (e.name == name && e.labels == labels) return &e;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_prometheus(
    const util::ForEach& for_each) const {
  std::string out;
  append_encoded(out, entries.size(), for_each,
                 [&](std::string& piece, std::size_t k) {
                   append_prometheus(piece, entries[k],
                                     k > 0 ? &entries[k - 1] : nullptr);
                 });
  return out;
}

std::string MetricsSnapshot::to_json(const util::ForEach& for_each) const {
  std::string out = "{\"metrics\":[";
  append_encoded(out, entries.size(), for_each,
                 [&](std::string& piece, std::size_t k) {
                   if (k > 0) piece += ',';
                   append_json(piece, entries[k]);
                 });
  out += "]}";
  return out;
}

std::string MetricsSnapshot::to_human(const util::ForEach& for_each) const {
  // One column width over every row, so the table reads the same however
  // its rows were encoded.
  std::size_t name_width = 4;
  for (const SnapshotEntry& e : entries) {
    name_width =
        std::max(name_width, e.name.size() + label_set_size(e.labels));
  }
  std::string out;
  append_encoded(out, entries.size(), for_each,
                 [&](std::string& piece, std::size_t k) {
                   append_human(piece, entries[k], name_width);
                 });
  return out;
}

namespace {

/// The exported label set of slot `label` of a catalog row.
Labels slot_labels(const MetricDef& def, std::size_t label) {
  if (def.label_key.empty()) return {};
  return {{std::string(def.label_key), std::string(def.label_values[label])}};
}

}  // namespace

MetricsRegistry::MetricsRegistry() {
  for (std::size_t m = 0; m < kBuiltinMetrics.size(); ++m) {
    const MetricDef& def = kBuiltinMetrics[m];
    if (def.kind != MetricKind::kHistogram) continue;
    for (std::size_t l = 0; l < def.slots(); ++l) {
      slots_[catalog::kSlotOffsets[m] + l].histogram.emplace(def.bounds);
    }
  }
}

void MetricsRegistry::bad_label(std::size_t metric, std::size_t label) {
  throw TelemetryError("metric '" +
                       std::string(kBuiltinMetrics[metric].name) +
                       "': label position " + std::to_string(label) +
                       " outside its label set");
}

MetricsSnapshot MetricsRegistry::snapshot(
    std::vector<std::uint16_t>* ranks) const {
  std::size_t touched = 0;
  for (const Series& series : slots_) {
    touched += series.touched.load(std::memory_order_relaxed) ? 1 : 0;
  }
  MetricsSnapshot snap;
  snap.entries.reserve(touched);
  for (std::size_t rank = 0; rank < catalog::kSlotCount; ++rank) {
    const std::size_t slot = catalog::kSnapshotOrder[rank];
    const Series& series = slots_[slot];
    if (!series.touched.load(std::memory_order_relaxed)) continue;
    const auto metric = static_cast<std::size_t>(
        std::upper_bound(catalog::kSlotOffsets.begin(),
                         catalog::kSlotOffsets.end(), slot) -
        catalog::kSlotOffsets.begin() - 1);
    const MetricDef& def = kBuiltinMetrics[metric];
    SnapshotEntry& entry = snap.entries.emplace_back();
    entry.name = def.name;
    entry.labels = slot_labels(def, slot - catalog::kSlotOffsets[metric]);
    entry.kind = def.kind;
    switch (def.kind) {
      case MetricKind::kCounter:
        entry.value = series.counter.value();
        break;
      case MetricKind::kGauge:
        entry.value = series.gauge.value();
        break;
      case MetricKind::kHistogram:
        entry.bounds = series.histogram->upper_bounds();
        series.histogram->snapshot_into(entry.buckets, entry.count,
                                        entry.sum);
        break;
    }
    if (ranks != nullptr) ranks->push_back(static_cast<std::uint16_t>(rank));
  }
  return snap;
}

void MetricsRegistry::reset() {
  for (Series& series : slots_) {
    series.counter.reset();
    series.gauge.reset();
    if (series.histogram) series.histogram->reset();
  }
}

void save_metrics(const MetricsSnapshot& snapshot,
                  const std::filesystem::path& path, bool human_sibling,
                  const util::ForEach& for_each) {
  const std::string name = path.string();
  std::string body;
  bool is_human = false;
  if (name.ends_with(".json")) {
    body = snapshot.to_json(for_each);
  } else if (name.ends_with(".txt")) {
    body = snapshot.to_human(for_each);
    is_human = true;
  } else {
    body = snapshot.to_prometheus(for_each);
  }
  // Temp-and-rename: a run killed mid-flush must leave the previous
  // complete snapshot, never a torn file.
  try {
    util::write_file_atomic(path, body);
    if (human_sibling && !is_human) {
      std::filesystem::path sibling = path;
      sibling.replace_extension(".txt");
      util::write_file_atomic(sibling, snapshot.to_human(for_each));
    }
  } catch (const util::AtomicWriteError& e) {
    throw TelemetryError(e.what());
  }
}

void MetricsRegistry::restore(const MetricsSnapshot& snapshot) {
  // Map every entry to its series first, so a refused snapshot changes
  // nothing.
  std::vector<Series*> targets;
  targets.reserve(snapshot.entries.size());
  for (const SnapshotEntry& entry : snapshot.entries) {
    std::string series = entry.name;
    append_label_set(series, entry.labels);
    const auto refused = [&](const std::string& why) {
      return checkpoint::CheckpointError("metrics snapshot: series " +
                                         series + " " + why);
    };
    const MetricDef* def = nullptr;
    Series* target = nullptr;
    for (std::size_t m = 0; m < kBuiltinMetrics.size() && !target; ++m) {
      if (kBuiltinMetrics[m].name != entry.name) continue;
      for (std::size_t l = 0; l < kBuiltinMetrics[m].slots(); ++l) {
        if (slot_labels(kBuiltinMetrics[m], l) != entry.labels) continue;
        def = &kBuiltinMetrics[m];
        target = &slots_[catalog::kSlotOffsets[m] + l];
        break;
      }
    }
    if (target == nullptr) throw refused("is not in the metric catalog");
    if (entry.kind != def->kind) {
      throw refused("is a " + std::string(to_string(entry.kind)) +
                    ", the catalog's a " + std::string(to_string(def->kind)));
    }
    if (def->kind == MetricKind::kHistogram &&
        (!std::equal(entry.bounds.begin(), entry.bounds.end(),
                     def->bounds.begin(), def->bounds.end()) ||
         entry.buckets.size() != def->bounds.size() + 1)) {
      throw refused("has other histogram bounds or buckets than the catalog");
    }
    targets.push_back(target);
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const SnapshotEntry& entry = snapshot.entries[i];
    Series& series = *targets[i];
    switch (entry.kind) {
      case MetricKind::kCounter:
        series.counter.restore(entry.value);
        break;
      case MetricKind::kGauge:
        series.gauge.set(entry.value);
        break;
      case MetricKind::kHistogram:
        series.histogram->restore(entry.buckets, entry.count, entry.sum);
        break;
    }
    series.touched.store(true, std::memory_order_relaxed);
  }
}

template <class Self, class Io>
void SnapshotEntry::fields(Self& self, Io& io) {
  io.str(self.name);
  io.seq(self.labels, [&io](auto& label) {
    io.str(label.first);
    io.str(label.second);
  });
  io.enum_u8(self.kind, kMetricKindCount, "metrics snapshot: kind tag");
  io.f64(self.value);
  io.f64_array(self.bounds);
  io.seq(self.buckets, [&io](auto& n) { io.u64(n); });
  io.u64(self.count);
  io.f64(self.sum);
}

template <class Self, class Io>
void MetricsSnapshot::fields(Self& self, Io& io) {
  io.objects(self.entries);
}

GH_CHECKPOINT_FIELDS(MetricsSnapshot);

}  // namespace greenhetero::telemetry
