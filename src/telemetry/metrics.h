// Metrics registry (counters, gauges, histograms).
//
// Every metric the stack reports is declared once, in the builtin catalog
// (kBuiltinMetrics below): name, kind, histogram bounds and, for labelled
// metrics, the label key with its closed set of values.  Every site names
// a series by its catalog entry:
//
//   t->metrics().counter("gh_epochs_total", record.source_case).increment();
//
// The literal resolves to a catalog index at compile time — a misspelt
// name, or a gauge name passed to counter(), does not compile — and the
// label is a position in the closed value set (an enum whose order the
// catalog mirrors, or a plain index).  The registry is a fixed array with
// one series per (metric, label position), sized by catalog::kSlotCount;
// an update is one array index plus an atomic add.  Each series carries a
// touched flag, so exports list exactly the series a run touched.
//
// Histograms use *fixed, deterministic* bucket bounds from the catalog (no
// adaptive resizing), so two runs of the same scenario always export the
// same bucket layout and snapshots diff cleanly.  `reset()` zeroes values
// but keeps the touched flags.
//
// Export: each format (JSON, the human table, Prometheus text) has one row
// encoder.  A metrics file is encoded straight from the registries
// (save_metrics over MetricsSource rows, read from the slots, with every
// catalog-constant piece of a row spelled once per process); a frozen
// MetricsSnapshot feeds the same encoders from its entries, so both paths
// write the same bytes.
//
// Thread-safety: each rack owns its own Telemetry, but the fleet's worker
// pool may step two racks on different threads — and any registry could in
// principle be shared.  Counter/gauge updates and touched flags are lock-
// free relaxed atomics (a plain add in the uncontended single-threaded
// case) and histogram bins are guarded by a per-histogram mutex, so
// snapshot() may run while other threads update.  Series live as long as
// the registry, so a reference returned by counter()/gauge()/histogram()
// stays valid across reset() and restore().
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace greenhetero::checkpoint {
class Writer;
}  // namespace greenhetero::checkpoint

namespace greenhetero::telemetry {

class TelemetryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// key=value pairs attached to one metric series (e.g. {{"case", "B"}}).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Deterministic double formatting shared by every exporter and the trace
/// encoder: integral |v| < 1e15 prints without a fraction ("%.0f"),
/// everything else with 10 significant digits ("%.10g"), NaN as "NaN" and
/// infinities as "+Inf"/"-Inf".  Appends in place through std::to_chars,
/// byte-identical to the printf spelling (FormatNumber.MatchesSnprintfBitwise).
void append_number(std::string& out, double value);
/// append_number into a fresh string.
[[nodiscard]] std::string format_number(double value);

class Counter {
 public:
  /// Lock-free and safe against concurrent increments (a CAS loop; compiles
  /// to an uncontended add-and-store in the single-threaded case).
  void increment(double delta = 1.0) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }
  /// Checkpoint restore: overwrite the running total.
  void restore(double value) {
    value_.store(value, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (cumulative export, Prometheus-style).  The bounds
/// are upper edges; an implicit +Inf bucket catches the overflow.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  /// Safe against concurrent observe() calls (per-histogram mutex).
  void observe(double value);
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }
  /// Per-bucket (non-cumulative) counts; size = upper_bounds().size() + 1,
  /// the last entry being the +Inf bucket.  This accessor (and count()/
  /// sum()) reads without the bin lock — use snapshot_into() when observers
  /// may still be running on other threads.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return counts_;
  }
  /// Locked, mutually consistent copy of (buckets, count, sum) for
  /// exporters that may race with live observers; `buckets` holds
  /// bucket_counts().size() elements.
  void snapshot_into(std::span<std::uint64_t> buckets, std::uint64_t& count,
                     double& sum) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  void reset();
  /// Checkpoint restore: overwrite bins/count/sum (MetricsRegistry::restore
  /// has checked that `buckets` matches the bounds).
  void restore(const std::vector<std::uint64_t>& buckets, std::uint64_t count,
               double sum);

 private:
  std::vector<double> bounds_;  ///< sorted, strictly increasing
  /// Guards counts_/count_/sum_ against concurrent observers; behind a
  /// unique_ptr so the Histogram stays movable.
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Bounds for wall-clock spans: 1 us to ~4 s in powers of two
/// (nanoseconds).  Fixed so latency exports are comparable across runs.
inline constexpr std::array<double, 23> kLatencyBucketsNs = [] {
  std::array<double, 23> b{};
  double edge = 1000.0;  // 1 us
  for (double& v : b) {
    v = edge;
    edge *= 2.0;
  }
  return b;
}();

/// Bounds for power prediction errors (watts, decade steps).
inline constexpr std::array<double, 12> kWattBuckets = {
    1.0,   2.0,   5.0,    10.0,   20.0,   50.0,
    100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0};

/// Bounds for queue-occupancy histograms (events, powers of two up to the
/// streaming sink's default capacity).
inline constexpr std::array<double, 17> kQueueDepthBuckets = [] {
  std::array<double, 17> b{};
  double edge = 1.0;
  for (double& v : b) {
    v = edge;
    edge *= 2.0;
  }
  return b;
}();

/// q-quantile estimate (q in [0,1]) of a histogram's bounds and per-bucket
/// counts — a snapshot payload or a live Histogram's bins — by linear
/// interpolation over the cumulative counts, Prometheus histogram_quantile
/// style: the answer lands inside the bucket containing rank q*count,
/// interpolated between its edges.  NaN when empty; the +Inf bucket clamps
/// to the largest finite bound.
[[nodiscard]] double histogram_quantile(std::span<const double> bounds,
                                        std::span<const std::uint64_t> buckets,
                                        double q);

/// "742ns" / "3.1us" / "12ms" / "1.5s" — scaled display of a nanosecond
/// duration, shared by the human metrics dump and the analyzer tables.
void append_duration_ns(std::string& out, double ns);
[[nodiscard]] std::string format_duration_ns(double ns);

enum class MetricKind { kCounter, kGauge, kHistogram };
inline constexpr int kMetricKindCount = 3;

[[nodiscard]] std::string_view to_string(MetricKind kind);

/// One catalog entry.  A labelled metric names its label key; its closed
/// value set lists every value in label-position order.
struct MetricDef {
  std::string_view name;
  MetricKind kind = MetricKind::kCounter;
  std::span<const double> bounds;  ///< histograms only
  std::string_view label_key;
  std::span<const std::string_view> label_values;

  /// Registry slots the entry owns: one per label value, one when
  /// unlabelled.
  [[nodiscard]] constexpr std::size_t slots() const {
    return label_key.empty() ? 1 : label_values.size();
  }
};

namespace catalog {
// Closed label sets, in the order of the enum each one mirrors
// (telemetry_test pins every value against that enum's to_string).
inline constexpr std::array<std::string_view, 4> kPowerCases = {
    "A(renewable)", "B(renewable+battery)", "C(battery)", "grid"};
inline constexpr std::array<std::string_view, 9> kFaultKinds = {
    "server_crash", "server_recover", "dvfs_stuck",
    "dvfs_offset",  "solar_dropout",  "solar_stuck",
    "grid_outage",  "battery_derate", "monitor_dropout"};
inline constexpr std::array<std::string_view, 4> kHealthStates = {
    "normal", "degraded", "safe", "recovering"};
inline constexpr std::array<std::string_view, 9> kLossBuckets = {
    "fault",          "idle_floor",         "solver_clamp",
    "dvfs_quantization", "prediction_error", "curtailed",
    "grid_cap",       "battery_stored",     "battery_round_trip"};
inline constexpr std::array<std::string_view, 2> kDbSampleKinds = {
    "training", "runtime"};
inline constexpr std::array<std::string_view, 2> kSolverBackends = {
    "analytic_n", "subset"};
/// The GH_SPAN phase tags (span.h), in rack-epoch order; pretrain runs
/// once per rack before the first epoch.
inline constexpr std::array<std::string_view, 11> kSpanTags = {
    "epoch",   "plan",     "predict",  "select_source", "solve",
    "enforce", "substeps", "feedback", "db_update",     "holt_retrain",
    "pretrain"};

constexpr MetricDef counter(std::string_view name) {
  return {name, MetricKind::kCounter, {}, {}, {}};
}
constexpr MetricDef counter(std::string_view name, std::string_view key,
                            std::span<const std::string_view> values) {
  return {name, MetricKind::kCounter, {}, key, values};
}
constexpr MetricDef gauge(std::string_view name) {
  return {name, MetricKind::kGauge, {}, {}, {}};
}
constexpr MetricDef gauge(std::string_view name, std::string_view key,
                          std::span<const std::string_view> values) {
  return {name, MetricKind::kGauge, {}, key, values};
}
constexpr MetricDef histogram(std::string_view name,
                              std::span<const double> bounds,
                              std::string_view key = {},
                              std::span<const std::string_view> values = {}) {
  return {name, MetricKind::kHistogram, bounds, key, values};
}
}  // namespace catalog

/// Every metric the stack itself registers, sorted by name.  `greenhetero
/// info` reports the catalog size so users can tell a quiet run from a
/// -DGH_TELEMETRY=OFF build.
inline constexpr std::array<MetricDef, 34> kBuiltinMetrics = {
    catalog::gauge("gh_battery_soc"),
    catalog::counter("gh_db_quarantined_total"),
    catalog::counter("gh_db_samples_total", "kind", catalog::kDbSampleKinds),
    catalog::counter("gh_degraded_substeps_total"),
    catalog::counter("gh_dvfs_quantization_passes_total"),
    catalog::counter("gh_enforcements_total"),
    catalog::counter("gh_epochs_total", "case", catalog::kPowerCases),
    catalog::counter("gh_faults_injected_total", "kind",
                     catalog::kFaultKinds),
    catalog::counter("gh_fleet_epochs_total"),
    catalog::counter("gh_flightrec_dumps_total"),
    catalog::gauge("gh_health_state"),
    catalog::counter("gh_health_transitions_total", "to",
                     catalog::kHealthStates),
    catalog::counter("gh_loss_epochs_total"),
    catalog::gauge("gh_loss_invariant_error_w"),
    catalog::gauge("gh_loss_w", "bucket", catalog::kLossBuckets),
    catalog::counter("gh_predictor_retrains_total"),
    catalog::gauge("gh_rack_epochs_per_sec"),
    catalog::histogram("gh_renewable_prediction_error_w", kWattBuckets),
    catalog::counter("gh_rollup_windows_total"),
    catalog::counter("gh_safe_mode_epochs_total"),
    catalog::counter("gh_solver_calls_total", "backend",
                     catalog::kSolverBackends),
    catalog::counter("gh_solver_failures_total"),
    catalog::counter("gh_solver_iterations_total", "backend",
                     catalog::kSolverBackends),
    catalog::counter("gh_solver_repairs_total"),
    catalog::counter("gh_source_decisions_total", "case",
                     catalog::kPowerCases),
    catalog::histogram("gh_span_ns", kLatencyBucketsNs, "span",
                       catalog::kSpanTags),
    catalog::counter("gh_spans_dropped_total"),
    catalog::counter("gh_substeps_total"),
    catalog::gauge("gh_trace_buffer_bytes"),
    catalog::counter("gh_trace_events_streamed_total"),
    catalog::gauge("gh_trace_queue_depth"),
    catalog::histogram("gh_trace_queue_residency", kQueueDepthBuckets),
    catalog::counter("gh_trace_stalls_total"),
    catalog::counter("gh_training_epochs_total"),
};

[[nodiscard]] inline std::span<const MetricDef> builtin_metrics() {
  return kBuiltinMetrics;
}

namespace catalog {
/// First registry slot of each catalog entry, and the slot total.
inline constexpr std::array<std::size_t, kBuiltinMetrics.size() + 1>
    kSlotOffsets = [] {
      std::array<std::size_t, kBuiltinMetrics.size() + 1> offsets{};
      for (std::size_t i = 0; i < kBuiltinMetrics.size(); ++i) {
        if (kBuiltinMetrics[i].slots() == 0) throw "label key without values";
        offsets[i + 1] = offsets[i] + kBuiltinMetrics[i].slots();
      }
      return offsets;
    }();
inline constexpr std::size_t kSlotCount = kSlotOffsets.back();

/// The catalog entry owning each registry slot.
inline constexpr std::array<std::uint8_t, kSlotCount> kSlotMetric = [] {
  std::array<std::uint8_t, kSlotCount> metric{};
  for (std::size_t m = 0; m < kBuiltinMetrics.size(); ++m) {
    for (std::size_t s = kSlotOffsets[m]; s < kSlotOffsets[m + 1]; ++s) {
      metric[s] = static_cast<std::uint8_t>(m);
    }
  }
  return metric;
}();

/// The most buckets (bounds + the +Inf bucket) of any catalog histogram.
inline constexpr std::size_t kMaxBuckets = [] {
  std::size_t most = 0;
  for (const MetricDef& def : kBuiltinMetrics) {
    if (def.kind == MetricKind::kHistogram) {
      most = std::max(most, def.bounds.size() + 1);
    }
  }
  return most;
}();

/// Every registry slot in export order: by metric name, then by label value
/// — the (name, labels) order of snapshot entries, whose label positions
/// follow their enums rather than their strings.  Sorted once, at compile
/// time, so a snapshot lists its series without sorting strings.
inline constexpr std::array<std::uint16_t, kSlotCount> kSnapshotOrder = [] {
  struct Key {
    std::uint16_t slot;
    std::string_view name;
    std::string_view label;
  };
  std::array<Key, kSlotCount> keys{};
  for (std::size_t m = 0; m < kBuiltinMetrics.size(); ++m) {
    const MetricDef& def = kBuiltinMetrics[m];
    for (std::size_t l = 0; l < def.slots(); ++l) {
      const std::size_t slot = kSlotOffsets[m] + l;
      keys[slot] = {static_cast<std::uint16_t>(slot), def.name,
                    def.label_key.empty() ? std::string_view{}
                                          : def.label_values[l]};
    }
  }
  for (std::size_t i = 1; i < keys.size(); ++i) {  // insertion sort
    for (std::size_t j = i; j > 0; --j) {
      const Key& a = keys[j - 1];
      const Key& b = keys[j];
      const bool before =
          a.name != b.name ? b.name < a.name : b.label < a.label;
      if (!before) break;
      std::swap(keys[j - 1], keys[j]);
    }
  }
  std::array<std::uint16_t, kSlotCount> order{};
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = keys[i].slot;
  return order;
}();
}  // namespace catalog

/// A position in a metric's closed label set: an index, or an enum whose
/// enumerators follow the catalog's value order.  0 for unlabelled metrics.
struct LabelIndex {
  constexpr LabelIndex(std::size_t index = 0) : value(index) {}
  template <typename Enum>
    requires std::is_enum_v<Enum>
  constexpr LabelIndex(Enum e) : value(static_cast<std::size_t>(e)) {}
  std::size_t value;
};

/// A catalog entry of kind `Kind`, found from its name at compile time:
/// an unknown name or a name of another kind fails to compile.
template <MetricKind Kind>
class MetricId {
 public:
  template <std::size_t N>
  consteval MetricId(const char (&name)[N]) : index_(find(name)) {}

  [[nodiscard]] constexpr std::size_t index() const { return index_; }
  [[nodiscard]] constexpr const MetricDef& def() const {
    return kBuiltinMetrics[index_];
  }
  /// The label value at `label` (empty for unlabelled metrics).
  [[nodiscard]] constexpr std::string_view label_value(
      LabelIndex label) const {
    return def().label_key.empty() ? std::string_view{}
                                   : def().label_values[label.value];
  }

 private:
  static consteval std::size_t find(std::string_view name) {
    for (std::size_t i = 0; i < kBuiltinMetrics.size(); ++i) {
      const MetricDef& def = kBuiltinMetrics[i];
      if (def.name != name) continue;
      if (def.kind != Kind) throw "metric registered with another kind";
      return i;
    }
    throw "not in the builtin metric catalog (kBuiltinMetrics)";
  }

  std::size_t index_;
};

using CounterId = MetricId<MetricKind::kCounter>;
using GaugeId = MetricId<MetricKind::kGauge>;
using HistogramId = MetricId<MetricKind::kHistogram>;

/// One exported series, value(s) frozen at snapshot time.
struct SnapshotEntry {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  ///< counter / gauge
  // Histogram payload (empty otherwise).
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;

  template <class Self, class Io>
  static void fields(Self& self, Io& io);
};

struct MetricsSnapshot {
  std::vector<SnapshotEntry> entries;  ///< sorted by (name, labels)

  [[nodiscard]] const SnapshotEntry* find(std::string_view name,
                                          const Labels& labels = {}) const;
  /// Prometheus text exposition format.
  [[nodiscard]] std::string to_prometheus() const;
  /// One JSON object per series under a top-level "metrics" array.
  [[nodiscard]] std::string to_json() const;
  /// Aligned human-readable table; histograms show count/mean/p50/p90/p99.
  [[nodiscard]] std::string to_human() const;

  /// Checkpoint serialization of a frozen snapshot (the registry itself
  /// round-trips as snapshot() -> save -> load -> restore()).
  template <class Self, class Io>
  static void fields(Self& self, Io& io);
};

/// The "rack" label a fleet adds to every series of one rack's registry,
/// spelled once: `"rack":"<i>"` for JSON and `rack="<i>"` for the
/// Prometheus and human formats.
class RackLabel {
 public:
  explicit RackLabel(std::size_t rack);

  [[nodiscard]] std::string_view value() const { return value_; }
  [[nodiscard]] std::string_view json() const { return json_; }
  [[nodiscard]] std::string_view text() const { return text_; }

 private:
  std::string value_;
  std::string json_;
  std::string text_;
};

class MetricsRegistry;

/// One registry of a metrics file, with the rack label its series carry
/// (none when null).
struct MetricsSource {
  const MetricsRegistry* registry = nullptr;
  const RackLabel* rack = nullptr;
};

/// Write the touched series of `sources` to `path`, format chosen by
/// extension: ".json" JSON, ".txt" the human table, anything else
/// Prometheus text.  The rows join in catalog (name, labels) order and,
/// within one series, in `sources` order; the bytes equal the same encoder
/// run over a MetricsSnapshot holding those entries in that order (a
/// Fleet::metrics_snapshot(), say).  Each registry's rows are encoded
/// straight from its slots, on `for_each` when given.  Writes a sibling
/// temp file first and renames it into place, so the periodic mid-run
/// flush (RunConfig::metrics_flush_every) always leaves a complete file on
/// disk even if the run dies mid-write.
///
/// With `human_sibling` set (the run loops' flush path), a machine-format
/// `path` additionally refreshes the human-readable table at the same path
/// with a ".txt" extension — same atomic-write discipline — so the dump a
/// human tails mid-run never goes stale while the JSON file advances.  A
/// `path` that is already ".txt" writes one file, not two.
void save_metrics(std::span<const MetricsSource> sources,
                  const std::filesystem::path& path,
                  bool human_sibling = false,
                  const util::ForEach& for_each = {});

/// The touched series of `sources` as one snapshot, in the order
/// save_metrics writes them; a source with a rack label has it appended
/// to each of its entries' labels.  The registries are read on
/// `for_each` when given.
[[nodiscard]] MetricsSnapshot merged_snapshot(
    std::span<const MetricsSource> sources, const util::ForEach& for_each = {});

/// One touched series as read from its registry slot: the row every
/// exporter (the metrics file encoders, snapshot(), the checkpoint writer)
/// starts from.  The buckets view lives only during the visit.
struct SeriesView {
  std::size_t slot = 0;  ///< registry slot (catalog row + label position)
  std::size_t rank = 0;  ///< position in catalog::kSnapshotOrder
  double value = 0.0;    ///< counter / gauge
  std::span<const std::uint64_t> buckets;  ///< histograms only
  std::uint64_t count = 0;
  double sum = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// A builtin series by catalog id and label position; marks it touched.
  /// Throws TelemetryError for a label position outside the closed set.
  Counter& counter(CounterId id, LabelIndex label = {}) {
    return touch(id.index(), label.value).counter;
  }
  Gauge& gauge(GaugeId id, LabelIndex label = {}) {
    return touch(id.index(), label.value).gauge;
  }
  Histogram& histogram(HistogramId id, LabelIndex label = {}) {
    return *touch(id.index(), label.value).histogram;
  }

  /// Every touched series, in (name, labels) order (catalog::kSnapshotOrder).
  /// With `ranks`, also each entry's position in that order: the key a merge
  /// of several registries' snapshots orders on without comparing strings.
  [[nodiscard]] MetricsSnapshot snapshot(
      std::vector<std::uint16_t>* ranks = nullptr) const;
  /// fn(view) for every touched series, in (name, labels) order.  A
  /// histogram's bins are copied under its lock into scratch the view
  /// points at; nothing is allocated.
  template <typename Fn>
  void for_each_touched(Fn&& fn) const {
    std::array<std::uint64_t, catalog::kMaxBuckets> bins{};
    for (std::size_t rank = 0; rank < catalog::kSlotCount; ++rank) {
      const std::size_t slot = catalog::kSnapshotOrder[rank];
      const Series& series = slots_[slot];
      if (!series.touched.load(std::memory_order_relaxed)) continue;
      SeriesView view;
      view.slot = slot;
      view.rank = rank;
      switch (kBuiltinMetrics[catalog::kSlotMetric[slot]].kind) {
        case MetricKind::kCounter:
          view.value = series.counter.value();
          break;
        case MetricKind::kGauge:
          view.value = series.gauge.value();
          break;
        case MetricKind::kHistogram: {
          const std::span<std::uint64_t> buckets(
              bins.data(), series.histogram->bucket_counts().size());
          series.histogram->snapshot_into(buckets, view.count, view.sum);
          view.buckets = buckets;
          break;
        }
      }
      fn(static_cast<const SeriesView&>(view));
    }
  }
  /// The touched series' count.
  [[nodiscard]] std::size_t touched() const;
  /// Checkpoint save, straight from the slots: the bytes of
  /// checkpoint::save(w, snapshot()).
  void save(checkpoint::Writer& w) const;
  /// Zero every series; touched series stay listed.
  void reset();
  /// Checkpoint restore: overwrite (and mark touched) the series of every
  /// snapshot entry; series not in the snapshot are left untouched.  An
  /// entry outside the catalog, of another kind, or a histogram whose
  /// bounds or bucket count differ from its catalog row is refused with a
  /// checkpoint::CheckpointError naming it, before any series changes.
  void restore(const MetricsSnapshot& snapshot);

 private:
  struct Series {
    Counter counter;
    Gauge gauge;
    std::optional<Histogram> histogram;  ///< engaged for histogram rows
    std::atomic<bool> touched{false};
  };

  Series& touch(std::size_t metric, std::size_t label) {
    if (label >= kBuiltinMetrics[metric].slots()) bad_label(metric, label);
    Series& series = slots_[catalog::kSlotOffsets[metric] + label];
    if (!series.touched.load(std::memory_order_relaxed)) {
      series.touched.store(true, std::memory_order_relaxed);
    }
    return series;
  }
  [[noreturn]] static void bad_label(std::size_t metric, std::size_t label);

  /// One per (catalog entry, label position), in catalog order.
  std::array<Series, catalog::kSlotCount> slots_;
};

}  // namespace greenhetero::telemetry
