// Metrics registry (counters, gauges, histograms).
//
// Every metric the stack reports is declared once, in the builtin catalog
// (kBuiltinMetrics below): name, kind, histogram bounds and, for labelled
// metrics, the label key with its closed set of values.  Hot-path sites name
// a series by its catalog entry:
//
//   t->metrics().counter("gh_epochs_total", record.source_case).increment();
//
// The literal resolves to a catalog index at compile time — a misspelt
// name, or a gauge name passed to counter(), does not compile — and the
// label is a position in the closed value set (an enum whose order the
// catalog mirrors, or a plain index).  The registry keeps one slot per
// (metric, label position): the first touch fills it through the string-
// keyed fetch-or-create path, every later update is one slot load plus an
// atomic add.  Untouched series stay absent, so exports list exactly the
// series a run touched.
//
// The string-keyed named_*() calls are that resolver, and the cold path
// for series the catalog cannot enumerate (per-shard gauges), checkpoint
// restore and tests.  Names and label strings are interned once.
//
// Histograms use *fixed, deterministic* bucket bounds chosen at registration
// (no adaptive resizing), so two runs of the same scenario always export the
// same bucket layout and snapshots diff cleanly.  Snapshots can be exported
// as Prometheus text or JSON; `reset()` zeroes values but keeps the interned
// registrations.
//
// Thread-safety: each rack owns its own Telemetry, but the fleet's worker
// pool may step two racks on different threads — and any registry could in
// principle be shared.  Counter/gauge updates are lock-free relaxed atomics
// (a plain add in the uncontended single-threaded case), histogram bins are
// guarded by a per-histogram mutex, and series registration/snapshotting by
// a registry mutex.  Slots are atomic pointers published after the series
// exists; two threads racing on an empty slot both resolve, under the
// registry lock, to the same series.  Series are never erased (reset() and
// restore() keep every registration), so a slot, like a reference returned
// by named_*(), stays valid for the registry's lifetime.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace greenhetero::checkpoint {
class Writer;
class Reader;
}  // namespace greenhetero::checkpoint

namespace greenhetero::telemetry {

class TelemetryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// key=value pairs attached to one metric series (e.g. {{"case", "B"}}).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Deterministic double formatting shared by every exporter: integers print
/// without a fraction, everything else as shortest round-trippable decimal.
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
  /// exporters that may race with live observers.
  void snapshot_into(std::vector<std::uint64_t>& buckets,
                     std::uint64_t& count, double& sum) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// q-quantile estimate (q in [0,1]) by linear interpolation over the
  /// cumulative bucket counts, Prometheus histogram_quantile style: the
  /// answer lands inside the bucket containing rank q*count, interpolated
  /// between its edges.  NaN when empty; the +Inf bucket clamps to the
  /// largest finite bound.
  [[nodiscard]] double quantile(double q) const;
  void reset();
  /// Checkpoint restore: overwrite bins/count/sum.  `buckets.size()` must
  /// equal upper_bounds().size() + 1 (throws TelemetryError otherwise).
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

[[nodiscard]] inline std::span<const double> latency_buckets_ns() {
  return kLatencyBucketsNs;
}
[[nodiscard]] inline std::span<const double> watt_buckets() {
  return kWattBuckets;
}
[[nodiscard]] inline std::span<const double> queue_depth_buckets() {
  return kQueueDepthBuckets;
}

/// The interpolation underlying Histogram::quantile, usable on snapshot
/// payloads (bounds + per-bucket counts) after the live histogram is gone.
[[nodiscard]] double histogram_quantile(std::span<const double> bounds,
                                        std::span<const std::uint64_t> buckets,
                                        double q);

/// "742ns" / "3.1us" / "12ms" / "1.5s" — scaled display of a nanosecond
/// duration, shared by the human metrics dump and the analyzer tables.
[[nodiscard]] std::string format_duration_ns(double ns);

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricKind kind);

/// One catalog entry.  A labelled metric names its label key; its closed
/// value set lists every value in label-position order.  A key with no
/// values is an open set (the per-shard gauges): those series exist only
/// through the string-keyed registry calls.
struct MetricDef {
  std::string_view name;
  MetricKind kind = MetricKind::kCounter;
  std::span<const double> bounds;  ///< histograms only
  std::string_view label_key;
  std::span<const std::string_view> label_values;

  /// Registry slots the entry owns: one per label value, one when
  /// unlabelled, none for an open label set.
  [[nodiscard]] constexpr std::size_t slots() const {
    if (label_key.empty()) return 1;
    return label_values.size();
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
inline constexpr std::array<std::string_view, 3> kSolverBackends = {
    "analytic_n", "grid", "subset"};
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
                          std::span<const std::string_view> values = {}) {
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
inline constexpr std::array<MetricDef, 38> kBuiltinMetrics = {
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
    catalog::gauge("gh_fleet_shards"),
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
    catalog::gauge("gh_shard_deficit_w", "shard"),
    catalog::gauge("gh_shard_grant_w", "shard"),
    catalog::gauge("gh_shard_racks", "shard"),
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
        offsets[i + 1] = offsets[i] + kBuiltinMetrics[i].slots();
      }
      return offsets;
    }();
inline constexpr std::size_t kSlotCount = kSlotOffsets.back();
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
/// an unknown name, a name of another kind or a metric with an open label
/// set fails to compile.
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
      if (def.slots() == 0) throw "open label set: use the named_* calls";
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
};

/// Write a snapshot to `path`, format chosen by extension: ".json" JSON,
/// ".txt" the human table, anything else Prometheus text.  Writes a
/// sibling temp file first and renames it into place, so the periodic
/// mid-run flush (SimConfig/FleetConfig metrics_flush_every) always leaves
/// a complete snapshot on disk even if the run dies mid-write.
///
/// With `human_sibling` set (the run loops' flush path), a machine-format
/// `path` additionally refreshes the human-readable table at the same path
/// with a ".txt" extension — same atomic-write discipline — so the dump a
/// human tails mid-run never goes stale while the JSON snapshot advances.
/// A `path` that is already ".txt" writes one file, not two.
void save_metrics(const MetricsSnapshot& snapshot,
                  const std::filesystem::path& path,
                  bool human_sibling = false);

/// Checkpoint serialization of a frozen snapshot (the registry itself
/// round-trips as snapshot() -> save -> load -> restore()).
void save_state(checkpoint::Writer& w, const MetricsSnapshot& snapshot);
void load_state(checkpoint::Reader& r, MetricsSnapshot& snapshot);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Hot path: a builtin series by catalog id and label position.  Throws
  /// TelemetryError for a label position outside the closed set, or when
  /// the name was registered through named_*() with another kind/bounds.
  Counter& counter(CounterId id, LabelIndex label = {}) {
    return slot(id.index(), label.value).counter;
  }
  Gauge& gauge(GaugeId id, LabelIndex label = {}) {
    return slot(id.index(), label.value).gauge;
  }
  Histogram& histogram(HistogramId id, LabelIndex label = {}) {
    return slot(id.index(), label.value).histogram.front();
  }

  /// Cold path: fetch-or-create any series by name and labels.  A series
  /// keeps its identity for the registry's lifetime; re-requesting with a
  /// different kind (or different histogram bounds) throws TelemetryError.
  Counter& named_counter(std::string_view name, const Labels& labels = {});
  Gauge& named_gauge(std::string_view name, const Labels& labels = {});
  Histogram& named_histogram(std::string_view name,
                             std::span<const double> upper_bounds,
                             const Labels& labels = {});

  [[nodiscard]] std::size_t series_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return series_.size();
  }
  /// Distinct strings interned so far (names + label keys/values) — exposed
  /// so tests can pin the interning behaviour.
  [[nodiscard]] std::size_t interned_strings() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return intern_table_.size();
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zero every series; registrations (and interned strings) survive.
  void reset();
  /// Checkpoint restore: re-register every series in `snapshot` (fetch-or-
  /// create, so pre-registered series keep their identity) and overwrite its
  /// value(s).  Series not present in the snapshot are left untouched.
  void restore(const MetricsSnapshot& snapshot);

 private:
  struct Series {
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    std::vector<Histogram> histogram;  ///< 0 or 1 entry (keeps Series movable)
  };
  /// (interned name id, interned label ids) — cheap ordered map key.
  using SeriesKey = std::pair<std::uint32_t, std::vector<std::uint32_t>>;

  Series& slot(std::size_t metric, std::size_t label) {
    if (label >= kBuiltinMetrics[metric].slots()) bad_label(metric, label);
    const std::size_t index = catalog::kSlotOffsets[metric] + label;
    Series* series = slots_[index].load(std::memory_order_acquire);
    return series != nullptr ? *series : resolve(metric, label);
  }
  /// First touch of a slot: fetch-or-create its series and publish it.
  Series& resolve(std::size_t metric, std::size_t label);
  [[noreturn]] static void bad_label(std::size_t metric, std::size_t label);

  /// Callers of these three must hold mutex_.
  [[nodiscard]] std::uint32_t intern(std::string_view s);
  [[nodiscard]] SeriesKey key_for(std::string_view name, const Labels& labels);
  /// Find or create the series at `key` with the given kind (and bounds,
  /// for histograms).
  Series& fetch_or_create(SeriesKey key, std::string_view name,
                          MetricKind kind, std::span<const double> bounds);

  /// Guards registration (the maps) and snapshotting; series *updates* go
  /// through the atomic/mutexed series objects and never take this lock.
  mutable std::mutex mutex_;
  std::vector<std::string> interned_;  ///< id -> string (stable storage)
  std::map<std::string, std::uint32_t, std::less<>> intern_table_;
  std::map<SeriesKey, Series> series_;
  /// One per (catalog entry, label position); null until first touch.
  std::array<std::atomic<Series*>, catalog::kSlotCount> slots_{};
};

}  // namespace greenhetero::telemetry
