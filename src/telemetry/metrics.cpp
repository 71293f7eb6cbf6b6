#include "telemetry/metrics.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
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

void Histogram::snapshot_into(std::span<std::uint64_t> buckets,
                              std::uint64_t& count, double& sum) const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  std::copy_n(counts_.begin(), std::min(buckets.size(), counts_.size()),
              buckets.begin());
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

/// `"key":"value"` (JSON) or `key="value"` (Prometheus and the human table)
/// appended to a comma-joined label list.
void append_json_label(std::string& out, std::string_view key,
                       std::string_view value) {
  if (!out.empty()) out += ',';
  append_json_escaped(out, key);
  out += ':';
  append_json_escaped(out, value);
}

void append_text_label(std::string& out, std::string_view key,
                       std::string_view value) {
  if (!out.empty()) out += ',';
  out += key;
  out += "=\"";
  out += value;
  out += '"';
}

/// `{a,b,c}` over the non-empty label lists; nothing when all are empty.
void append_braced(std::string& out, std::string_view a, std::string_view b,
                   std::string_view c = {}) {
  if (a.empty() && b.empty() && c.empty()) return;
  out += '{';
  bool first = true;
  for (const std::string_view list : {a, b, c}) {
    if (list.empty()) continue;
    if (!first) out += ',';
    first = false;
    out += list;
  }
  out += '}';
}

/// The constant parts of one series' row in every format: its name, kind
/// and labels, a histogram's bounds.  Spelled once per catalog slot
/// (slot_texts()), or per snapshot entry into reused scratch.
struct RowText {
  std::string_view name;
  MetricKind kind = MetricKind::kCounter;
  std::span<const double> bounds;
  bool duration = false;     ///< a *_ns series: human values as durations
  std::string json_head;     ///< {"name":"<name>","kind":"<kind>"
  std::string json_labels;   ///< "key":"value",... (no braces)
  std::string text_labels;   ///< key="value",... (no braces)
  std::string json_bounds;   ///< ,"bounds":[...] (histograms)
  std::vector<std::string> le;  ///< le="<bound>" per bucket, le="+Inf" last
  std::string type_line;     ///< # TYPE <name> <kind>\n

  /// Respell for another series; the strings keep their capacity.
  void spell(std::string_view series, MetricKind series_kind,
             std::span<const double> series_bounds) {
    name = series;
    kind = series_kind;
    bounds = series_bounds;
    duration = name.ends_with("_ns") && name.size() > 3;
    json_head = "{\"name\":";
    append_json_escaped(json_head, name);
    json_head += ",\"kind\":";
    append_json_escaped(json_head, to_string(kind));
    json_labels.clear();
    text_labels.clear();
    json_bounds.clear();
    le.clear();
    type_line = "# TYPE ";
    type_line += name;
    type_line += ' ';
    type_line += to_string(kind);
    type_line += '\n';
    if (kind != MetricKind::kHistogram) return;
    json_bounds = ",\"bounds\":[";
    for (std::size_t b = 0; b < bounds.size(); ++b) {
      if (b > 0) json_bounds += ',';
      append_number(json_bounds, bounds[b]);
    }
    json_bounds += ']';
    le.resize(bounds.size() + 1);
    for (std::size_t b = 0; b < le.size(); ++b) {
      le[b] = "le=\"";
      if (b < bounds.size()) {
        append_number(le[b], bounds[b]);
      } else {
        le[b] += "+Inf";
      }
      le[b] += '"';
    }
  }
  void add_label(std::string_view key, std::string_view value) {
    append_json_label(json_labels, key, value);
    append_text_label(text_labels, key, value);
  }
};

/// Every catalog slot's row text, spelled on first use.
const std::array<RowText, catalog::kSlotCount>& slot_texts() {
  static const std::array<RowText, catalog::kSlotCount> texts = [] {
    std::array<RowText, catalog::kSlotCount> t;
    for (std::size_t m = 0; m < kBuiltinMetrics.size(); ++m) {
      const MetricDef& def = kBuiltinMetrics[m];
      for (std::size_t l = 0; l < def.slots(); ++l) {
        RowText& text = t[catalog::kSlotOffsets[m] + l];
        text.spell(def.name, def.kind, def.bounds);
        if (!def.label_key.empty()) {
          text.add_label(def.label_key, def.label_values[l]);
        }
      }
    }
    return t;
  }();
  return texts;
}

// The row encoders, one per format.  `rack` is a source's extra label list
// (RackLabel::json / text), empty for none.

void append_json_row(std::string& out, const RowText& t,
                     std::string_view rack, const SeriesView& v) {
  out += t.json_head;
  if (!t.json_labels.empty() || !rack.empty()) {
    out += ",\"labels\":";
    append_braced(out, t.json_labels, rack);
  }
  if (t.kind == MetricKind::kHistogram) {
    out += ",\"count\":";
    append_number(out, static_cast<double>(v.count));
    out += ",\"sum\":";
    append_number(out, v.sum);
    out += t.json_bounds;
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < v.buckets.size(); ++b) {
      if (b > 0) out += ',';
      append_number(out, static_cast<double>(v.buckets[b]));
    }
    out += ']';
  } else {
    out += ",\"value\":";
    append_number(out, v.value);
  }
  out += '}';
}

/// Prometheus text: the sample lines of one series (its `# TYPE` line is
/// written once per metric by the caller).
void append_prometheus_row(std::string& out, const RowText& t,
                           std::string_view rack, const SeriesView& v) {
  if (t.kind == MetricKind::kHistogram) {
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < v.buckets.size(); ++b) {
      cumulative += v.buckets[b];
      out += t.name;
      out += "_bucket";
      append_braced(out, t.text_labels, rack,
                    t.le[std::min(b, t.le.size() - 1)]);
      out += ' ';
      append_number(out, static_cast<double>(cumulative));
      out += '\n';
    }
    out += t.name;
    out += "_sum";
    append_braced(out, t.text_labels, rack);
    out += ' ';
    append_number(out, v.sum);
    out += '\n';
    out += t.name;
    out += "_count";
    append_braced(out, t.text_labels, rack);
    out += ' ';
    append_number(out, static_cast<double>(v.count));
    out += '\n';
  } else {
    out += t.name;
    append_braced(out, t.text_labels, rack);
    out += ' ';
    append_number(out, v.value);
    out += '\n';
  }
}

/// Width of a human row's `name{labels}` column.
std::size_t human_name_size(const RowText& t, std::string_view rack) {
  std::size_t lists = 0;
  std::size_t size = t.name.size();
  for (const std::string_view list : {std::string_view(t.text_labels), rack}) {
    if (list.empty()) continue;
    size += list.size();
    ++lists;
  }
  return lists == 0 ? size : size + 2 + (lists - 1);  // braces and comma
}

/// "3.1us" for *_ns series, plain append_number otherwise.
void append_human_value(std::string& out, const RowText& t, double value) {
  if (t.duration) {
    append_duration_ns(out, value);
  } else {
    append_number(out, value);
  }
}

void append_human_row(std::string& out, const RowText& t,
                      std::string_view rack, const SeriesView& v,
                      std::size_t name_width) {
  const std::size_t row_start = out.size();
  out += t.name;
  append_braced(out, t.text_labels, rack);
  out.append(name_width + 2 - (out.size() - row_start), ' ');
  const std::string_view kind = to_string(t.kind);
  out += kind;
  out.append(11 - kind.size(), ' ');
  if (t.kind == MetricKind::kHistogram) {
    out += "count=";
    append_number(out, static_cast<double>(v.count));
    out += " mean=";
    append_human_value(
        out, t, v.count > 0 ? v.sum / static_cast<double>(v.count) : 0.0);
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"p50", 0.5},
          {"p90", 0.9},
          {"p99", 0.99}}) {
      out += ' ';
      out += label;
      out += '=';
      append_human_value(out, t, histogram_quantile(t.bounds, v.buckets, q));
    }
  } else {
    append_human_value(out, t, v.value);
  }
  out += '\n';
}

/// A snapshot entry's row text, spelled into `scratch`, which holds the
/// previous entry's: a run of entries of one series (a fleet's racks)
/// respells only its labels.
const RowText& entry_text(RowText& scratch, const SnapshotEntry& e) {
  if (scratch.json_head.empty() || scratch.name != e.name ||
      scratch.kind != e.kind ||
      !std::equal(scratch.bounds.begin(), scratch.bounds.end(),
                  e.bounds.begin(), e.bounds.end())) {
    scratch.spell(e.name, e.kind, e.bounds);
  } else {
    scratch.name = e.name;
    scratch.bounds = e.bounds;
    scratch.json_labels.clear();
    scratch.text_labels.clear();
  }
  for (const auto& [key, value] : e.labels) scratch.add_label(key, value);
  return scratch;
}

SeriesView entry_view(const SnapshotEntry& e) {
  SeriesView v;
  v.value = e.value;
  v.buckets = e.buckets;
  v.count = e.count;
  v.sum = e.sum;
  return v;
}

/// The human table's narrowest `name{labels}` column.
constexpr std::size_t kMinNameWidth = 4;

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
  RowText text;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const SnapshotEntry& e = entries[k];
    const RowText& t = entry_text(text, e);
    if (k == 0 || entries[k - 1].name != e.name) out += t.type_line;
    append_prometheus_row(out, t, {}, entry_view(e));
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  RowText text;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    if (k > 0) out += ',';
    append_json_row(out, entry_text(text, entries[k]), {},
                    entry_view(entries[k]));
  }
  out += "]}";
  return out;
}

std::string MetricsSnapshot::to_human() const {
  // One column width over every row.
  RowText text;
  std::size_t name_width = kMinNameWidth;
  for (const SnapshotEntry& e : entries) {
    name_width = std::max(name_width, human_name_size(entry_text(text, e), {}));
  }
  std::string out;
  for (const SnapshotEntry& e : entries) {
    append_human_row(out, entry_text(text, e), {}, entry_view(e), name_width);
  }
  return out;
}

RackLabel::RackLabel(std::size_t rack) : value_(std::to_string(rack)) {
  append_json_label(json_, "rack", value_);
  append_text_label(text_, "rack", value_);
}

namespace {

enum class Format { kJson, kHuman, kPrometheus };

Format format_of(const std::filesystem::path& path) {
  const std::string name = path.string();
  if (name.ends_with(".json")) return Format::kJson;
  if (name.ends_with(".txt")) return Format::kHuman;
  return Format::kPrometheus;
}

/// One registry's rows, encoded in up to two formats: each row's rank in
/// the catalog order and, per format, the bytes and each row's end offset.
struct SourceRows {
  std::vector<std::uint16_t> ranks;
  std::array<std::string, 2> bytes;
  std::array<std::vector<std::size_t>, 2> ends;
};

void encode_rows(const MetricsSource& source, std::span<const Format> formats,
                 std::size_t name_width, SourceRows& rows) {
  const std::array<RowText, catalog::kSlotCount>& texts = slot_texts();
  const std::string_view rack_json = source.rack ? source.rack->json() : "";
  const std::string_view rack_text = source.rack ? source.rack->text() : "";
  source.registry->for_each_touched([&](const SeriesView& v) {
    const RowText& t = texts[v.slot];
    rows.ranks.push_back(static_cast<std::uint16_t>(v.rank));
    for (std::size_t f = 0; f < formats.size(); ++f) {
      std::string& out = rows.bytes[f];
      switch (formats[f]) {
        case Format::kJson:
          append_json_row(out, t, rack_json, v);
          break;
        case Format::kHuman:
          append_human_row(out, t, rack_text, v, name_width);
          break;
        case Format::kPrometheus:
          append_prometheus_row(out, t, rack_text, v);
          break;
      }
      rows.ends[f].push_back(out.size());
    }
  });
}

/// The order every multi-registry export lists its series in: by catalog
/// rank, and within one rank (one series) in source order.  `ranks[s]` are
/// source s's row ranks, ascending; fn(s, k) visits row k of source s.
template <typename Fn>
void in_join_order(std::span<const std::vector<std::uint16_t>* const> ranks,
                   Fn&& fn) {
  std::vector<std::size_t> cursor(ranks.size(), 0);
  for (std::size_t rank = 0; rank < catalog::kSlotCount; ++rank) {
    for (std::size_t s = 0; s < ranks.size(); ++s) {
      std::size_t& k = cursor[s];
      if (k == ranks[s]->size() || (*ranks[s])[k] != rank) continue;
      fn(s, k);
      ++k;
    }
  }
}

/// Join every source's rows of format slot `f` in join order.
std::string join_rows(std::span<const SourceRows> sources, std::size_t f,
                      Format format) {
  std::size_t total = 16;
  std::vector<const std::vector<std::uint16_t>*> ranks;
  ranks.reserve(sources.size());
  for (const SourceRows& rows : sources) {
    total += rows.bytes[f].size() + rows.ranks.size();  // + separators
    ranks.push_back(&rows.ranks);
  }
  std::string out;
  out.reserve(total);
  if (format == Format::kJson) out += "{\"metrics\":[";
  const std::array<RowText, catalog::kSlotCount>& texts = slot_texts();
  std::size_t last_metric = kBuiltinMetrics.size();
  bool first = true;
  in_join_order(ranks, [&](std::size_t s, std::size_t k) {
    const SourceRows& rows = sources[s];
    const std::size_t slot = catalog::kSnapshotOrder[rows.ranks[k]];
    if (format == Format::kPrometheus &&
        catalog::kSlotMetric[slot] != last_metric) {
      last_metric = catalog::kSlotMetric[slot];
      out += texts[slot].type_line;
    }
    if (format == Format::kJson && !first) out += ',';
    first = false;
    const std::size_t begin = k == 0 ? 0 : rows.ends[f][k - 1];
    out.append(rows.bytes[f], begin, rows.ends[f][k] - begin);
  });
  if (format == Format::kJson) out += "]}";
  return out;
}

/// fn(s) for every source, on `for_each` when given.
void for_each_source(std::size_t n, const util::ForEach& for_each,
                     const std::function<void(std::size_t)>& fn) {
  if (for_each) {
    for_each(n, fn);
  } else {
    for (std::size_t s = 0; s < n; ++s) fn(s);
  }
}

}  // namespace

void save_metrics(std::span<const MetricsSource> sources,
                  const std::filesystem::path& path, bool human_sibling,
                  const util::ForEach& for_each) {
  std::array<Format, 2> formats{format_of(path), Format::kHuman};
  const std::size_t format_count =
      human_sibling && formats[0] != Format::kHuman ? 2 : 1;
  const std::span<const Format> used(formats.data(), format_count);

  // A first pass over the touched slots fixes the human table's column.
  std::size_t name_width = kMinNameWidth;
  if (std::find(used.begin(), used.end(), Format::kHuman) != used.end()) {
    const std::array<RowText, catalog::kSlotCount>& texts = slot_texts();
    for (const MetricsSource& source : sources) {
      const std::string_view rack = source.rack ? source.rack->text() : "";
      source.registry->for_each_touched([&](const SeriesView& v) {
        name_width = std::max(name_width, human_name_size(texts[v.slot], rack));
      });
    }
  }
  std::vector<SourceRows> rows(sources.size());
  for_each_source(sources.size(), for_each, [&](std::size_t s) {
    encode_rows(sources[s], used, name_width, rows[s]);
  });
  // Temp-and-rename: a run killed mid-flush must leave the previous
  // complete file, never a torn one.
  try {
    util::write_file_atomic(path, join_rows(rows, 0, formats[0]));
    if (format_count == 2) {
      std::filesystem::path sibling = path;
      sibling.replace_extension(".txt");
      util::write_file_atomic(sibling, join_rows(rows, 1, Format::kHuman));
    }
  } catch (const util::AtomicWriteError& e) {
    throw TelemetryError(e.what());
  }
}

MetricsSnapshot merged_snapshot(std::span<const MetricsSource> sources,
                                const util::ForEach& for_each) {
  std::vector<MetricsSnapshot> snaps(sources.size());
  std::vector<std::vector<std::uint16_t>> ranks(sources.size());
  for_each_source(sources.size(), for_each, [&](std::size_t s) {
    snaps[s] = sources[s].registry->snapshot(&ranks[s]);
    if (sources[s].rack == nullptr) return;
    const std::string label(sources[s].rack->value());
    for (SnapshotEntry& entry : snaps[s].entries) {
      entry.labels.emplace_back("rack", label);
    }
  });
  std::vector<const std::vector<std::uint16_t>*> rank_lists;
  std::size_t total = 0;
  for (const std::vector<std::uint16_t>& r : ranks) {
    rank_lists.push_back(&r);
    total += r.size();
  }
  MetricsSnapshot merged;
  merged.entries.reserve(total);
  in_join_order(rank_lists, [&](std::size_t s, std::size_t k) {
    merged.entries.push_back(std::move(snaps[s].entries[k]));
  });
  return merged;
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

std::size_t MetricsRegistry::touched() const {
  std::size_t n = 0;
  for (const Series& series : slots_) {
    n += series.touched.load(std::memory_order_relaxed) ? 1 : 0;
  }
  return n;
}

MetricsSnapshot MetricsRegistry::snapshot(
    std::vector<std::uint16_t>* ranks) const {
  MetricsSnapshot snap;
  snap.entries.reserve(touched());
  for_each_touched([&](const SeriesView& v) {
    const std::size_t metric = catalog::kSlotMetric[v.slot];
    const MetricDef& def = kBuiltinMetrics[metric];
    SnapshotEntry& entry = snap.entries.emplace_back();
    entry.name = def.name;
    entry.labels = slot_labels(def, v.slot - catalog::kSlotOffsets[metric]);
    entry.kind = def.kind;
    entry.value = v.value;
    if (def.kind == MetricKind::kHistogram) {
      entry.bounds.assign(def.bounds.begin(), def.bounds.end());
      entry.buckets.assign(v.buckets.begin(), v.buckets.end());
      entry.count = v.count;
      entry.sum = v.sum;
    }
    if (ranks != nullptr) ranks->push_back(static_cast<std::uint16_t>(v.rank));
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

void MetricsRegistry::restore(const MetricsSnapshot& snapshot) {
  // Map every entry to its series first, so a refused snapshot changes
  // nothing.
  std::vector<Series*> targets;
  targets.reserve(snapshot.entries.size());
  for (const SnapshotEntry& entry : snapshot.entries) {
    std::string series = entry.name;
    std::string labels;
    for (const auto& [key, value] : entry.labels) {
      append_text_label(labels, key, value);
    }
    append_braced(series, labels, {});
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

void MetricsRegistry::save(checkpoint::Writer& w) const {
  // MetricsSnapshot::fields, each entry's list written from its slot.
  w.seq(touched());
  for_each_touched([&w](const SeriesView& v) {
    const std::size_t metric = catalog::kSlotMetric[v.slot];
    const MetricDef& def = kBuiltinMetrics[metric];
    w.str(def.name);
    w.seq(def.label_key.empty() ? 0 : 1);
    if (!def.label_key.empty()) {
      w.str(def.label_key);
      w.str(def.label_values[v.slot - catalog::kSlotOffsets[metric]]);
    }
    w.enum_u8(def.kind, kMetricKindCount, "metrics snapshot: kind tag");
    w.f64(v.value);
    w.f64_array(def.kind == MetricKind::kHistogram ? def.bounds
                                                   : std::span<const double>{});
    w.seq(v.buckets.size());
    for (const std::uint64_t n : v.buckets) w.u64(n);
    w.u64(v.count);
    w.f64(v.sum);
  });
}

GH_CHECKPOINT_FIELDS(MetricsSnapshot);

}  // namespace greenhetero::telemetry
