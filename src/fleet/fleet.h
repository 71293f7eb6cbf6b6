// Fleet coordinator: multiple GreenHetero racks sharing one datacenter-level
// grid connection.
//
// The paper deploys the controller per rack (Section IV-A) and notes the
// trade-off: distributed rack controllers track load variability precisely,
// but rack-level plants cannot share capacity.  The one genuinely shared
// resource is the utility feed — its peak draw is what demand charges bill.
// This coordinator drives the racks' simulators in epoch lockstep and
// re-divides a total grid budget between them each epoch:
//
//   kStatic              equal share per rack, fixed forever (the baseline
//                        a per-rack deployment implies);
//   kDemandProportional  share proportional to each rack's current *green
//                        deficit* (demanded power minus renewable and
//                        battery capability) — racks with healthy green
//                        supply cede their grid share to starved ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/shard.h"
#include "sim/epoch_store.h"
#include "sim/rack_simulator.h"
#include "telemetry/stream_sink.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace greenhetero {

class FleetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class GridShareMode { kStatic, kDemandProportional };

/// "static" / "demand-proportional"; out-of-enum values render as
/// "GridShareMode(<n>)" so a corrupted config is diagnosable instead of "?".
[[nodiscard]] std::string to_string(GridShareMode mode);

/// Split `budget` across racks proportionally to their green deficits.
/// Falls back to an equal split when the deficits cannot support a
/// proportional division: total deficit ~zero (nobody needs the grid) or any
/// deficit non-finite (a poisoned demand reading must not NaN the whole
/// fleet's shares).  Empty input returns an empty vector.
[[nodiscard]] std::vector<Watts> divide_grid_budget(
    Watts budget, std::span<const double> deficits);

/// The run-loop knobs (streamed merged trace, merged metrics flush, whole-
/// fleet checkpoints, scenario fingerprint, stop flag) are RunConfig's
/// (sim/epoch_driver.h).
struct FleetConfig : RunConfig {
  Watts total_grid_budget{0.0};
  GridShareMode mode = GridShareMode::kStatic;
  /// Worker threads for the per-epoch rack stepping: 1 = sequential (the
  /// historical path), 0 = one per hardware thread, N = exactly N.  Results
  /// are byte-identical regardless of the value — each rack owns its own
  /// RNG/telemetry/fault state and the coordinator re-divides grid shares
  /// only at the epoch barrier.
  std::size_t threads = 1;
  /// Two-level hierarchy: racks are partitioned into this many contiguous
  /// shards, each filling its racks' deficits and stepping its racks on its
  /// own slice of the worker threads (see fleet/shard.h).  1 = the flat
  /// fleet, 0 = one shard per worker thread (capped at the rack count).
  /// Like `threads`, this is pure execution topology: every output except
  /// the wall-clock metric series is byte-identical at any value.
  std::size_t shards = 1;
  /// Coordinator-level telemetry (the coordinator stamps its events with
  /// rack id -1; each rack's own telemetry is configured via its SimConfig).
  TelemetryConfig telemetry;
  /// Runtime invariant checking of the coordinator's own decisions: validate
  /// every epoch's grid shares (finite, non-negative, never over-committing
  /// the total budget) via check::InvariantChecker::check_grid_shares.
  /// Per-rack invariants are enabled separately via SimConfig::check.
  bool check = false;
  /// Fail fast on out-of-range knobs (negative or non-finite grid budget,
  /// run-loop knobs).
  /// Throws FleetError; rack-dependent invariants (matching epoch lengths)
  /// are checked by the Fleet constructor.
  void validate() const;
};

struct FleetReport {
  /// Per-rack reports.  Their `metrics` stay empty: the racks' series reach
  /// Fleet::metrics_snapshot() with a "rack" label.
  std::vector<RunReport> racks;
  /// True when the run was cut short by a stop request; the report covers
  /// only the completed epochs and a final checkpoint was written if
  /// checkpointing was configured.
  bool interrupted = false;
  double total_work = 0.0;
  WattHours grid_energy{0.0};
  double grid_cost = 0.0;
  /// Highest simultaneous fleet grid draw planned in any epoch (the number
  /// demand charges are billed on).
  Watts peak_grid_allocation{0.0};
  /// Coordinator-level metrics (grid-share decisions; empty when disabled).
  MetricsSnapshot metrics;
};

class Fleet final : private EpochClient {
 public:
  /// Takes ownership of the rack simulators.  Every simulator must use the
  /// same epoch length (lockstep requires it).
  Fleet(std::vector<RackSimulator> racks, FleetConfig config);

  [[nodiscard]] std::size_t size() const { return racks_.size(); }
  [[nodiscard]] Watts total_grid_budget() const {
    return config_.total_grid_budget;
  }
  [[nodiscard]] GridShareMode mode() const { return config_.mode; }
  /// Resolved worker-thread count (config value 0 becomes the hardware
  /// concurrency at construction).
  [[nodiscard]] std::size_t threads() const { return threads_; }
  /// Resolved shard count (config value clamped to [1, racks]; 0 becomes
  /// one shard per worker thread).
  [[nodiscard]] std::size_t shards() const { return shards_.size(); }
  /// Bytes reserved by the SoA epoch history (the bench-gated peak-buffer
  /// figure for long runs).
  [[nodiscard]] std::size_t epoch_store_bytes() const {
    return history_.bytes();
  }
  [[nodiscard]] RackSimulator& rack(std::size_t i);

  /// Pretrain every rack's database (no plant interaction).
  void pretrain();

  /// Run all racks in epoch lockstep for `duration`; grid shares are
  /// re-divided before every epoch.  With threads > 1 the per-rack epoch
  /// steps run on the worker pool; the coordinator waits for every rack
  /// before replanning shares, so plan_grid_shares() always sees a
  /// consistent fleet snapshot and the report is byte-identical to the
  /// sequential path.  A fresh call runs `duration` more; after
  /// load_checkpoint, `duration` is the absolute horizon (EpochDriver::run).
  FleetReport run(Minutes duration);

  /// The share each rack receives in the coming epoch: the equal split in
  /// static mode, else divide_grid_budget over the racks' green deficits
  /// (filled shard by shard on the shard pools).  Call only between
  /// epochs; run() uses it at every barrier.
  [[nodiscard]] std::vector<Watts> plan_grid_shares() const;

  /// Coordinator-level telemetry context (rack id -1).
  [[nodiscard]] Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const Telemetry& telemetry() const { return *telemetry_; }

  /// Fleet-wide metrics: the coordinator's own series plus every rack's,
  /// the latter tagged with a "rack" label, in (name, labels) order
  /// (telemetry::merged_snapshot of metrics_sources(), on the shard
  /// pools), so the result is the same at any topology.  The run's metrics
  /// file holds the same rows, encoded straight from the registries.
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;

  /// Merged control-loop spans from every rack (and the coordinator) as one
  /// Chrome trace_event JSON file; each rack renders as its own process row.
  void write_chrome_spans(std::ostream& out) const;
  void save_chrome_spans(const std::filesystem::path& path) const;

  /// Merged profiler tree: the coordinator's phases plus every rack's,
  /// folded together in ascending rack order.  Each rack's epoch runs on
  /// exactly one thread and the merge happens after the epoch barrier, so
  /// every field except the wall/CPU timings is identical at any --threads.
  [[nodiscard]] telemetry::ProfileReport profile_report() const;

  /// Merged rollup series across every rack, ordered by (window start, rack)
  /// — the fleet --rollup-out format; a valid analyzer input on its own.
  /// Requires racks configured with rollup_window_min > 0; run() flushes
  /// each rack's trailing window before returning.
  void write_rollup_jsonl(std::ostream& out) const;
  void save_rollup_jsonl(const std::filesystem::path& path) const;

  /// Dump every rack's flight recorder with a shared reason (run-abort
  /// hook); returns the paths written (empty when recorders are disabled).
  std::vector<std::filesystem::path> dump_flight_records(
      std::string_view reason);

  /// The streaming sink (null unless FleetConfig::trace_stream was set).
  [[nodiscard]] telemetry::StreamingTraceSink* stream() {
    return driver_.stream();
  }
  [[nodiscard]] const telemetry::StreamingTraceSink* stream() const {
    return driver_.stream();
  }

  /// Serialize the complete resumable fleet state: every rack's state, the
  /// coordinator's telemetry, the per-rack epoch histories and the peak
  /// grid allocation, as the coordinator's head chunk, one chunk per rack
  /// (serialised on the shard pools), then the epoch history.  The
  /// streaming sink is handled by write_checkpoint / load_checkpoint
  /// alongside.
  void save_chunks(std::vector<checkpoint::Writer>& chunks) const override;
  void load_state(checkpoint::Reader& r) override;

  /// EpochDriver::write_checkpoint / load_checkpoint for the whole fleet.
  /// Called by run() at the configured cadence; callable at any epoch
  /// barrier, at any thread count.
  void write_checkpoint() { driver_.write_checkpoint(*this); }
  void load_checkpoint(const checkpoint::Snapshot& snapshot) {
    driver_.load_checkpoint(*this, snapshot);
  }

 private:
  // EpochClient: what run() hands the driver.
  [[nodiscard]] const RunConfig& run_config() const override {
    return config_;
  }
  std::size_t advance_epoch(std::size_t epoch) override;
  [[nodiscard]] std::size_t epoch_index() const override {
    return racks_.front().epoch_index();
  }
  void restart_history() override;
  /// The coordinator's registry, then the racks' in rack_label_order_.
  [[nodiscard]] std::vector<telemetry::MetricsSource> metrics_sources()
      const override;
  [[nodiscard]] std::uint64_t trace_dropped() const override;
  /// Hand the sink every trace ring's lines (coordinator first, then racks
  /// 0..N-1) for its watermark merge, which orders the merged trace by
  /// (sim time, rack id); without a sink, empty the rings.
  void push_trace(telemetry::StreamingTraceSink* sink, bool final) override;
  void flush_rollup() override;
  /// Two-level fan-out over the shards' pools: fn(i) for every rack i on
  /// its own shard, or fn over n indices split evenly across the shards.
  void for_each_rack(const std::function<void(std::size_t)>& fn) const;
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const override;

  std::vector<RackSimulator> racks_;
  FleetConfig config_;
  std::size_t threads_;
  std::unique_ptr<Telemetry> telemetry_;
  /// The two-level execution topology: each shard owns a contiguous rack
  /// range and its own worker-pool slice.  Always at least one shard; with
  /// --shards 1 the single shard's pool is exactly the old flat fleet pool.
  std::vector<Shard> shards_;
  /// Fans each epoch's deficit pass and stepping out over the shards; with
  /// one shard or one thread it spawns no workers and runs inline.
  std::unique_ptr<util::ThreadPool> shard_pool_;
  /// The run() loop; owns the merged sink when FleetConfig::trace_stream is
  /// set.
  EpochDriver driver_;
  /// Per-epoch scratch: rack i's step lands in records_[i] and its share
  /// in shares_[i], so pool threads never touch a shared structure.
  std::vector<EpochRecord> records_;
  std::vector<Watts> shares_;
  /// Each rack's "rack" label, spelled once.
  std::vector<telemetry::RackLabel> rack_labels_;
  /// Rack indices in the order of their "rack" label strings ("0", "1",
  /// "10", ...): the order the metrics list one series' racks in.
  std::vector<std::size_t> rack_label_order_;
  /// Completed-epoch history, all racks, as SoA columns (epoch-major).  A
  /// member (not a run()-local) so checkpoints capture it and a resumed run
  /// reassembles the full report, first epoch to last.
  EpochRecordStore history_;
  Watts peak_grid_allocation_{0.0};
};

}  // namespace greenhetero
