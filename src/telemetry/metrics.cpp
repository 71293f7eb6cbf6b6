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

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (std::size_t m = 0; m < kBuiltinMetrics.size(); ++m) {
    const MetricDef& def = kBuiltinMetrics[m];
    for (std::size_t l = 0; l < def.slots(); ++l) {
      const Series& series = slots_[catalog::kSlotOffsets[m] + l];
      if (!series.touched.load(std::memory_order_relaxed)) continue;
      SnapshotEntry entry;
      entry.name = def.name;
      entry.labels = slot_labels(def, l);
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
      snap.entries.push_back(std::move(entry));
    }
  }
  // Catalog order is by name; label positions follow their enums, not the
  // label strings.
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
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
