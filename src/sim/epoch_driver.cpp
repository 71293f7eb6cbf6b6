#include "sim/epoch_driver.h"

#include <algorithm>
#include <chrono>

#include "util/logging.h"

namespace greenhetero {

std::string_view RunConfig::invalid_reason() const {
  if (metrics_flush_every < 1) {
    return "metrics flush cadence must be at least 1 epoch";
  }
  if (trace_stream && trace_stream->queue_capacity == 0) {
    return "stream queue capacity must be positive";
  }
  if (!checkpoint_dir.empty() && checkpoint_every < 1) {
    return "checkpoint cadence must be at least 1 epoch";
  }
  return {};
}

bool RunConfig::keeps_wall_times(
    const telemetry::TelemetryConfig& telemetry) const {
  return telemetry.profile || telemetry.spans || !metrics_out.empty() ||
         !checkpoint_dir.empty();
}

EpochDriver::EpochDriver(PayloadKind kind, const RunConfig& config,
                         Telemetry& telemetry)
    : kind_(kind), telemetry_(&telemetry) {
  if (config.trace_stream) {
    stream_ = std::make_unique<telemetry::StreamingTraceSink>(
        *config.trace_stream, &telemetry.metrics());
  }
}

bool EpochDriver::run(EpochClient& client, std::size_t epochs) {
  const RunConfig& config = client.run_config();
  std::size_t start = 0;
  if (resumed_) {
    start = client.epoch_index();
    resumed_ = false;
  } else {
    client.restart_history();
  }
  const std::chrono::steady_clock::time_point begin =
      std::chrono::steady_clock::now();
  std::size_t stepped = 0;
  // Refresh the throughput gauge (rack-epochs stepped in *this* run() over
  // its wall time; wall-clock, so like the gh_*_ns series it sits outside
  // the byte-identity comparisons), then write metrics_out when set.
  const auto flush_metrics = [&] {
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
    if (stepped > 0 && secs > 0.0 && telemetry_->config().enabled) {
      telemetry_->metrics()
          .gauge("gh_rack_epochs_per_sec")
          .set(static_cast<double>(stepped) / secs);
    }
    if (config.metrics_out.empty()) return;
    telemetry::save_metrics(
        client.metrics_sources(), config.metrics_out,
        /*human_sibling=*/true,
        [&client](std::size_t n, const std::function<void(std::size_t)>& fn) {
          client.parallel_for(n, fn);
        });
  };
  const auto flush_every =
      static_cast<std::size_t>(config.metrics_flush_every);
  const auto checkpoint_every =
      static_cast<std::size_t>(std::max(1, config.checkpoint_every));
  bool stop = false;
  for (std::size_t e = start; e < epochs; ++e) {
    stepped += client.advance_epoch(e);
    drain(client, /*final=*/false);
    if (!config.metrics_out.empty() && (e + 1) % flush_every == 0 &&
        e + 1 < epochs) {
      flush_metrics();
    }
    // Checkpoint at the epoch barrier: no worker thread is running, every
    // ring has been drained (into the sink, if any) and no finalization has
    // happened yet, so the snapshot plus the truncated stream file
    // reconstruct this exact moment at any thread count.  A stop request
    // forces a final checkpoint, then falls through to normal finalization
    // so the outputs stay standalone-valid; resume discards that tail
    // anyway.
    stop = config.stop_flag &&
           config.stop_flag->load(std::memory_order_relaxed);
    if (stop || (e + 1) % checkpoint_every == 0) write_checkpoint(client);
    if (stop) {
      GH_WARN << "stop requested; run interrupted after epoch " << e + 1
              << " of " << epochs;
      break;
    }
  }
  client.flush_rollup();
  drain(client, /*final=*/true);
  if (stream_) stream_->flush();
  flush_metrics();
  return stop;
}

void EpochDriver::drain(EpochClient& client, bool final) {
  if (!stream_) {
    client.push_trace(nullptr, final);
    return;
  }
  const std::uint64_t dropped = client.trace_dropped();
  if (dropped > streamed_dropped_) {
    stream_->note_dropped(dropped - streamed_dropped_);
    streamed_dropped_ = dropped;
  }
  client.push_trace(stream_.get(), final);
}

void EpochDriver::write_checkpoint(const EpochClient& client) {
  const RunConfig& config = client.run_config();
  if (config.checkpoint_dir.empty()) return;
  // Flush first so the writer thread is idle and the sink's tellp() is the
  // exact durable watermark of everything streamed so far.
  if (stream_) stream_->flush();
  // The payload is the concatenation of its chunks; write_snapshot folds
  // the checksum over them in order and writes them after the header, so
  // the bytes never depend on how the client split its state.
  std::vector<checkpoint::Writer> chunks(1);
  chunks.front().u8(static_cast<std::uint8_t>(kind_));
  client.save_chunks(chunks);
  checkpoint::Writer& tail = chunks.emplace_back();
  tail.boolean(static_cast<bool>(stream_));
  if (stream_) {
    tail.u64(streamed_dropped_);
    stream_->save_state(tail);
  }
  std::vector<std::string_view> payload;
  payload.reserve(chunks.size());
  for (const checkpoint::Writer& chunk : chunks) {
    payload.push_back(chunk.buffer());
  }
  checkpoint::write_snapshot(config.checkpoint_dir, client.epoch_index(),
                             config.config_hash, payload,
                             config.checkpoint_keep);
}

void EpochDriver::load_checkpoint(EpochClient& client,
                                  const checkpoint::Snapshot& snapshot) {
  if (snapshot.config_hash != client.run_config().config_hash) {
    throw checkpoint::CheckpointError(
        "checkpoint was taken under a different scenario configuration "
        "(fingerprint mismatch); refusing to resume");
  }
  checkpoint::Reader r{snapshot.payload};
  if (const int kind = r.u8(); kind != static_cast<int>(kind_)) {
    throw checkpoint::CheckpointError(
        "snapshot holds payload kind " + std::to_string(kind) + ", not " +
        std::to_string(static_cast<int>(kind_)) +
        " (1 = standalone simulation, 2 = fleet run)");
  }
  client.load_state(r);
  const bool streamed = r.boolean();
  if (streamed != static_cast<bool>(stream_)) {
    throw checkpoint::CheckpointError(
        streamed ? "checkpointed run streamed its trace; resume needs the "
                   "same --trace-out stream configuration"
                 : "checkpointed run did not stream; resume must not add a "
                   "streaming sink");
  }
  if (stream_) {
    streamed_dropped_ = r.u64();
    stream_->load_state(r);
  }
  if (!r.done()) {
    throw checkpoint::CheckpointError("snapshot has trailing bytes");
  }
  resumed_ = true;
}

}  // namespace greenhetero
