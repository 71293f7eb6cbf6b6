// Epoch driver: the one barrier loop behind RackSimulator::run and
// Fleet::run.  Both runners step one scheduling epoch at a time and do the
// same work at every epoch barrier: drain the trace rings into the streaming
// sink (or empty them when the run has none), flush the metrics file and
// checkpoint on their cadences, and stop when asked; then finalize the
// outputs.  EpochDriver owns that sequence,
// the streaming sink and the checkpoint envelope; a runner supplies only
// what differs (EpochClient), including where the barrier's per-rack work
// runs: the fleet encodes trace lines, metrics rows and checkpoint chunks on
// its shard pools, and EpochDriver only joins the results in a fixed order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "telemetry/stream_sink.h"
#include "telemetry/telemetry.h"

namespace greenhetero {

/// The run-loop knobs SimConfig and FleetConfig share.
struct RunConfig {
  /// Streaming trace sink, the only way trace events leave a run: run()
  /// drains every trace ring into this file at each epoch barrier.  Unset,
  /// the run keeps no trace (Telemetry::traced).  (Fleet-driven racks leave
  /// this unset; the coordinator owns the merged sink.)
  std::optional<telemetry::StreamSinkConfig> trace_stream;
  /// When non-empty, run() writes a metrics snapshot to this path every
  /// `metrics_flush_every` epochs (temp file + rename) and once more at the
  /// end, so a long run's metrics survive an abort.
  std::string metrics_out;
  int metrics_flush_every = 128;
  /// Durable checkpointing: when non-empty, run() writes a versioned,
  /// checksummed snapshot of the complete resumable state every
  /// `checkpoint_every` epochs (temp file + rename, so a crash never leaves
  /// a torn checkpoint); `--resume DIR` continues from the latest valid one
  /// to byte-identical final outputs.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  /// Snapshots retained after each write (older ones pruned); <= 0 keeps
  /// every snapshot (the kill-at-every-epoch test matrix needs them all).
  int checkpoint_keep = 2;
  /// Scenario fingerprint, stored in every snapshot and verified on resume
  /// so a checkpoint cannot silently resume a different scenario.  The CLI
  /// hashes its scenario-affecting flags; 0 simply has to match 0.
  std::uint64_t config_hash = 0;
  /// Cooperative stop flag (the CLI's SIGINT/SIGTERM handler sets it),
  /// checked at each epoch barrier: run() writes a final checkpoint (when
  /// configured), finalizes outputs for the completed epochs and returns
  /// with the report's `interrupted` set.
  const std::atomic<bool>* stop_flag = nullptr;

  /// The first rule these knobs break, or empty when valid; the owning
  /// config's validate() prefixes it and throws its own error type.
  [[nodiscard]] std::string_view invalid_reason() const;

  /// Whether a context configured by `telemetry` in this run keeps span
  /// wall times (Telemetry::timed): it has the profiler or span records,
  /// or the run writes a metrics file or checkpoints (the registry, span
  /// histograms included, is checkpointed).  RackSimulator and Fleet set
  /// every context's flag from it.
  [[nodiscard]] bool keeps_wall_times(
      const telemetry::TelemetryConfig& telemetry) const;
};

/// What a runner supplies to its EpochDriver.  RackSimulator and Fleet
/// implement it privately and pass themselves to every driver call.
class EpochClient {
 public:
  /// The runner's own config (read on every call, never copied).
  [[nodiscard]] virtual const RunConfig& run_config() const = 0;
  /// Step every rack through epoch `epoch` of this run and emit the epoch's
  /// own events; returns the rack-epochs stepped (throughput gauge).
  virtual std::size_t advance_epoch(std::size_t epoch) = 0;
  /// Completed epochs since construction: where a resumed run continues and
  /// the index a snapshot is filed under.
  [[nodiscard]] virtual std::size_t epoch_index() const = 0;
  /// Drop the completed-epoch history (a fresh run starts a new report).
  virtual void restart_history() = 0;
  /// Ring evictions so far, summed over every ring that feeds the sink.
  [[nodiscard]] virtual std::uint64_t trace_dropped() const = 0;
  /// Drain the rings into `sink`, or discard their events when it is null;
  /// `final` flushes every buffered event.
  virtual void push_trace(telemetry::StreamingTraceSink* sink,
                          bool final) = 0;
  /// Close the trailing rollup windows (stamped with the run's end time).
  virtual void flush_rollup() = 0;
  /// The registries metrics_out receives, in the order their rows join
  /// within one series (telemetry::save_metrics encodes them straight from
  /// their slots, on parallel_for).
  [[nodiscard]] virtual std::vector<telemetry::MetricsSource>
  metrics_sources() const = 0;
  /// The checkpoint payload between the kind byte and the sink state, as
  /// consecutive chunks appended to `chunks` (a rack writes one; the fleet
  /// serialises each rack into its own chunk on its shard pools).
  virtual void save_chunks(std::vector<checkpoint::Writer>& chunks) const = 0;
  virtual void load_state(checkpoint::Reader& r) = 0;
  /// Run fn(i) for every i in [0, n) on the runner's worker threads and
  /// return after every call finished (the metrics encoding fans out on
  /// it); inline by default.
  virtual void parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& fn) const {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }

 protected:
  ~EpochClient() = default;
};

/// The checkpoint payload's leading kind byte.
enum class PayloadKind : std::uint8_t { kRack = 1, kFleet = 2 };

class EpochDriver {
 public:
  EpochDriver() = default;
  /// Opens the streaming sink when config.trace_stream is set.  The sink's
  /// gauges and gh_rack_epochs_per_sec land in `telemetry`, which must
  /// outlive the driver.  Every later call reads the knobs from the
  /// client's run_config().
  EpochDriver(PayloadKind kind, const RunConfig& config, Telemetry& telemetry);

  /// Drive `client` to `epochs`.  A fresh call restarts the history and
  /// runs `epochs` more epochs; after load_checkpoint the run continues from
  /// the restored epoch up to the absolute horizon `epochs`.  Returns true
  /// when the stop flag cut the run short.
  bool run(EpochClient& client, std::size_t epochs);

  /// Write one snapshot (kind byte, client state, sink watermark) to
  /// RunConfig::checkpoint_dir; no-op without one.
  void write_checkpoint(const EpochClient& client);
  /// Check the fingerprint and payload kind, restore the client's state and
  /// (in streaming mode) truncate + reopen the sink file at its durable
  /// watermark.  The next run() continues from the restored epoch.
  void load_checkpoint(EpochClient& client,
                       const checkpoint::Snapshot& snapshot);

  /// The streaming sink (null unless RunConfig::trace_stream was set).
  [[nodiscard]] telemetry::StreamingTraceSink* stream() const {
    return stream_.get();
  }

 private:
  /// Report new ring evictions to the sink, then hand it the events (or
  /// empty the rings when there is no sink).
  void drain(EpochClient& client, bool final);

  PayloadKind kind_ = PayloadKind::kRack;
  Telemetry* telemetry_ = nullptr;
  std::unique_ptr<telemetry::StreamingTraceSink> stream_;
  /// Ring evictions already reported to the sink via note_dropped().
  std::uint64_t streamed_dropped_ = 0;
  /// Set by load_checkpoint(): the next run() continues, not restarts.
  bool resumed_ = false;
};

}  // namespace greenhetero
