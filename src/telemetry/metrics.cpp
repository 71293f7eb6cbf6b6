#include "telemetry/metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "checkpoint/serializer.h"
#include "telemetry/tracing.h"
#include "util/atomic_file.h"

namespace greenhetero::telemetry {

std::string format_number(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0.0 ? "+Inf" : "-Inf";
  const double rounded = std::nearbyint(value);
  if (rounded == value && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
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
  if (buckets.size() != bounds_.size() + 1) {
    throw TelemetryError("histogram restore: bucket count mismatch");
  }
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

double Histogram::quantile(double q) const {
  return histogram_quantile(bounds_, counts_, q);
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

namespace {

void append_label_set(std::string& out, const Labels& labels) {
  if (labels.empty()) return;
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
  out += '}';
}

}  // namespace

const SnapshotEntry* MetricsSnapshot::find(std::string_view name,
                                           const Labels& labels) const {
  for (const SnapshotEntry& e : entries) {
    if (e.name == name && e.labels == labels) return &e;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  std::string_view last_name;
  for (const SnapshotEntry& e : entries) {
    if (e.name != last_name) {
      out += "# TYPE ";
      out += e.name;
      out += ' ';
      out += to_string(e.kind);
      out += '\n';
      last_name = e.name;
    }
    if (e.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < e.buckets.size(); ++b) {
        cumulative += e.buckets[b];
        out += e.name;
        out += "_bucket";
        Labels with_le = e.labels;
        with_le.emplace_back(
            "le", b < e.bounds.size() ? format_number(e.bounds[b]) : "+Inf");
        append_label_set(out, with_le);
        out += ' ';
        out += format_number(static_cast<double>(cumulative));
        out += '\n';
      }
      out += e.name;
      out += "_sum";
      append_label_set(out, e.labels);
      out += ' ';
      out += format_number(e.sum);
      out += '\n';
      out += e.name;
      out += "_count";
      append_label_set(out, e.labels);
      out += ' ';
      out += format_number(static_cast<double>(e.count));
      out += '\n';
    } else {
      out += e.name;
      append_label_set(out, e.labels);
      out += ' ';
      out += format_number(e.value);
      out += '\n';
    }
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first_entry = true;
  for (const SnapshotEntry& e : entries) {
    if (!first_entry) out += ',';
    first_entry = false;
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
      out += ",\"count\":" + format_number(static_cast<double>(e.count));
      out += ",\"sum\":" + format_number(e.sum);
      out += ",\"bounds\":[";
      for (std::size_t b = 0; b < e.bounds.size(); ++b) {
        if (b > 0) out += ',';
        out += format_number(e.bounds[b]);
      }
      out += "],\"buckets\":[";
      for (std::size_t b = 0; b < e.buckets.size(); ++b) {
        if (b > 0) out += ',';
        out += format_number(static_cast<double>(e.buckets[b]));
      }
      out += ']';
    } else {
      out += ",\"value\":" + format_number(e.value);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string format_duration_ns(double ns) {
  if (std::isnan(ns)) return "-";
  const double abs = std::fabs(ns);
  char buf[48];
  if (abs < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  } else if (abs < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else if (abs < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  }
  return buf;
}

namespace {

/// "3.1us" for *_ns series, plain format_number otherwise.
std::string human_value(const std::string& name, double value) {
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
    return format_duration_ns(value);
  }
  return format_number(value);
}

}  // namespace

std::string MetricsSnapshot::to_human() const {
  std::size_t name_width = 4;
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const SnapshotEntry& e : entries) {
    std::string display = e.name;
    append_label_set(display, e.labels);
    name_width = std::max(name_width, display.size());
    names.push_back(std::move(display));
  }
  std::string out;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SnapshotEntry& e = entries[i];
    out += names[i];
    out.append(name_width + 2 - names[i].size(), ' ');
    out += to_string(e.kind);
    out.append(11 - to_string(e.kind).size(), ' ');
    if (e.kind == MetricKind::kHistogram) {
      out += "count=" + format_number(static_cast<double>(e.count));
      out += " mean=" +
             human_value(e.name,
                         e.count > 0 ? e.sum / static_cast<double>(e.count)
                                     : 0.0);
      for (const auto& [label, q] :
           {std::pair<const char*, double>{"p50", 0.5},
            {"p90", 0.9},
            {"p99", 0.99}}) {
        out += ' ';
        out += label;
        out += '=';
        out += human_value(e.name, histogram_quantile(e.bounds, e.buckets, q));
      }
    } else {
      out += human_value(e.name, e.value);
    }
    out += '\n';
  }
  return out;
}

std::uint32_t MetricsRegistry::intern(std::string_view s) {
  const auto it = intern_table_.find(s);
  if (it != intern_table_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(interned_.size());
  interned_.emplace_back(s);
  intern_table_.emplace(interned_.back(), id);
  return id;
}

MetricsRegistry::SeriesKey MetricsRegistry::key_for(std::string_view name,
                                                    const Labels& labels) {
  SeriesKey key{intern(name), {}};
  for (const auto& [k, v] : labels) {
    key.second.push_back(intern(k));
    key.second.push_back(intern(v));
  }
  return key;
}

MetricsRegistry::Series& MetricsRegistry::fetch_or_create(
    SeriesKey key, std::string_view name, MetricKind kind,
    std::span<const double> bounds) {
  auto [it, inserted] = series_.try_emplace(std::move(key));
  Series& series = it->second;
  if (inserted) {
    series.kind = kind;
    if (kind == MetricKind::kHistogram) series.histogram.emplace_back(bounds);
  } else if (series.kind != kind) {
    throw TelemetryError("metric '" + std::string(name) +
                         "' already registered with a different kind");
  } else if (kind == MetricKind::kHistogram) {
    const std::vector<double>& have = series.histogram.front().upper_bounds();
    if (!std::equal(have.begin(), have.end(), bounds.begin(), bounds.end())) {
      throw TelemetryError("histogram '" + std::string(name) +
                           "' re-registered with different bucket bounds");
    }
  }
  return series;
}

Counter& MetricsRegistry::named_counter(std::string_view name,
                                        const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return fetch_or_create(key_for(name, labels), name, MetricKind::kCounter, {})
      .counter;
}

Gauge& MetricsRegistry::named_gauge(std::string_view name,
                                    const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return fetch_or_create(key_for(name, labels), name, MetricKind::kGauge, {})
      .gauge;
}

Histogram& MetricsRegistry::named_histogram(
    std::string_view name, std::span<const double> upper_bounds,
    const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return fetch_or_create(key_for(name, labels), name, MetricKind::kHistogram,
                         upper_bounds)
      .histogram.front();
}

MetricsRegistry::Series& MetricsRegistry::resolve(std::size_t metric,
                                                  std::size_t label) {
  const MetricDef& def = kBuiltinMetrics[metric];
  const std::lock_guard<std::mutex> lock(mutex_);
  SeriesKey key{intern(def.name), {}};
  if (!def.label_key.empty()) {
    key.second = {intern(def.label_key), intern(def.label_values[label])};
  }
  Series& series = fetch_or_create(std::move(key), def.name, def.kind,
                                   def.bounds);
  slots_[catalog::kSlotOffsets[metric] + label].store(
      &series, std::memory_order_release);
  return series;
}

void MetricsRegistry::bad_label(std::size_t metric, std::size_t label) {
  throw TelemetryError("metric '" +
                       std::string(kBuiltinMetrics[metric].name) +
                       "': label position " + std::to_string(label) +
                       " outside its label set");
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.entries.reserve(series_.size());
  for (const auto& [key, series] : series_) {
    SnapshotEntry entry;
    entry.name = interned_[key.first];
    for (std::size_t i = 0; i + 1 < key.second.size(); i += 2) {
      entry.labels.emplace_back(interned_[key.second[i]],
                                interned_[key.second[i + 1]]);
    }
    entry.kind = series.kind;
    switch (series.kind) {
      case MetricKind::kCounter:
        entry.value = series.counter.value();
        break;
      case MetricKind::kGauge:
        entry.value = series.gauge.value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = series.histogram.front();
        entry.bounds = h.upper_bounds();
        h.snapshot_into(entry.buckets, entry.count, entry.sum);
        break;
      }
    }
    snap.entries.push_back(std::move(entry));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, series] : series_) {
    series.counter.reset();
    series.gauge.reset();
    for (Histogram& h : series.histogram) h.reset();
  }
}

void save_metrics(const MetricsSnapshot& snapshot,
                  const std::filesystem::path& path, bool human_sibling) {
  const std::string name = path.string();
  std::string body;
  bool is_human = false;
  if (name.ends_with(".json")) {
    body = snapshot.to_json();
  } else if (name.ends_with(".txt")) {
    body = snapshot.to_human();
    is_human = true;
  } else {
    body = snapshot.to_prometheus();
  }
  // Temp-and-rename: a run killed mid-flush must leave the previous
  // complete snapshot, never a torn file.
  try {
    util::write_file_atomic(path, body);
    if (human_sibling && !is_human) {
      std::filesystem::path sibling = path;
      sibling.replace_extension(".txt");
      util::write_file_atomic(sibling, snapshot.to_human());
    }
  } catch (const util::AtomicWriteError& e) {
    throw TelemetryError(e.what());
  }
}

void MetricsRegistry::restore(const MetricsSnapshot& snapshot) {
  for (const SnapshotEntry& entry : snapshot.entries) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        named_counter(entry.name, entry.labels).restore(entry.value);
        break;
      case MetricKind::kGauge:
        named_gauge(entry.name, entry.labels).set(entry.value);
        break;
      case MetricKind::kHistogram:
        named_histogram(entry.name, entry.bounds, entry.labels)
            .restore(entry.buckets, entry.count, entry.sum);
        break;
    }
  }
}

void save_state(checkpoint::Writer& w, const MetricsSnapshot& snapshot) {
  w.seq(snapshot.entries.size());
  for (const SnapshotEntry& entry : snapshot.entries) {
    w.str(entry.name);
    w.seq(entry.labels.size());
    for (const auto& [key, value] : entry.labels) {
      w.str(key);
      w.str(value);
    }
    w.u8(static_cast<std::uint8_t>(entry.kind));
    w.f64(entry.value);
    checkpoint::save(w, entry.bounds);
    checkpoint::save(w, entry.buckets);
    w.u64(entry.count);
    w.f64(entry.sum);
  }
}

void load_state(checkpoint::Reader& r, MetricsSnapshot& snapshot) {
  const std::size_t entries = r.seq();
  snapshot.entries.clear();
  snapshot.entries.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    SnapshotEntry entry;
    entry.name = r.str();
    const std::size_t labels = r.seq();
    entry.labels.reserve(labels);
    for (std::size_t j = 0; j < labels; ++j) {
      std::string key = r.str();
      entry.labels.emplace_back(std::move(key), r.str());
    }
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(MetricKind::kHistogram)) {
      throw checkpoint::CheckpointError("metrics snapshot: bad kind tag " +
                                        std::to_string(kind));
    }
    entry.kind = static_cast<MetricKind>(kind);
    entry.value = r.f64();
    checkpoint::load(r, entry.bounds);
    checkpoint::load(r, entry.buckets);
    entry.count = r.u64();
    entry.sum = r.f64();
    snapshot.entries.push_back(std::move(entry));
  }
}

}  // namespace greenhetero::telemetry
