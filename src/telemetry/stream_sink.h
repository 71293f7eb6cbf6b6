// Bounded-memory streaming trace sink: the only way trace events leave a
// run.
//
// Producers hand over encoded JSONL lines (TraceLines, straight from the
// contexts' trace rings) at epoch barriers, a dedicated writer thread
// writes them to the file, and a bounded queue between the two provides
// backpressure (a full queue blocks the producer and counts a stall), so
// memory stays capped at one epoch's lines plus queue_capacity no matter
// how long the run is.
//
// Ordering contract: the file holds the schema header, then every event
// in (sim time, rack id) order with ties in emission order, then a
// truncation footer when rings evicted events — at any thread or shard
// count.
//
//  - Single rack (RackSimulator::run): one source, already in emission
//    order, so push() writes each epoch's lines unmodified.
//  - Fleet: push_merge().  Every rack encodes its events into its own ring
//    as it emits them, on the pool thread stepping it.  At every epoch
//    barrier the coordinator hands over every ring (coordinator first,
//    then racks 0..N-1); the sink stable-sorts their (t, rack) tags
//    together with the pending lines and flushes the prefix strictly below
//    the watermark (the next epoch's start time).  Every event emitted
//    while stepping epoch e is stamped within [e_start, e_end) — fault
//    events at substep times, epoch_plan/loss_ledger/rollup at now(), the
//    coordinator's grid_share at e_start — so nothing older can arrive
//    later, and rack ids are unique per source, so (t, rack) ties are
//    always same-source and the stable sort preserves their emission
//    order.  The incremental merge therefore equals a stable sort of the
//    whole run's concatenation, and which thread encoded a line never
//    changes a byte.
//
// The contract is pinned by the golden traces (tests/golden/) and by
// streaming_sink_test, which checks push_merge against std::stable_sort of
// seeded random multi-source batches.
//
// Producers encode; the writer thread only writes bytes.  close() (or
// destruction) flushes the queue, appends a truncation footer if the
// producer reported ring drops, and joins the writer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/tracing.h"

namespace greenhetero::checkpoint {
class Writer;
class Reader;
}  // namespace greenhetero::checkpoint

namespace greenhetero::telemetry {

class MetricsRegistry;

struct StreamSinkConfig {
  std::filesystem::path path;
  /// Queue bound in lines; a producer handing over a batch that would
  /// exceed it blocks until the writer catches up (one stall counted per
  /// wait).  Peak sink memory ~= queue_capacity * mean line bytes (about
  /// 220 B on a fleet trace, so ~3.5 MB): room for a few epochs of a
  /// 512-rack fleet's ~4100 lines, so a barrier rarely waits.
  std::size_t queue_capacity = 16384;
  /// Resume mode: the constructor neither opens the file nor writes the
  /// schema header; load_state() truncates the existing file back to the
  /// checkpointed durable offset and reopens it for append.  No events may
  /// be pushed before load_state() runs.
  bool resume = false;
};

class StreamingTraceSink {
 public:
  /// Opens the file and writes the schema header immediately; `metrics`
  /// (optional) receives gh_trace_queue_depth / gh_trace_stalls_total /
  /// gh_trace_events_streamed_total updates on every hand-off.
  explicit StreamingTraceSink(StreamSinkConfig config,
                              MetricsRegistry* metrics = nullptr);
  ~StreamingTraceSink();
  StreamingTraceSink(const StreamingTraceSink&) = delete;
  StreamingTraceSink& operator=(const StreamingTraceSink&) = delete;

  [[nodiscard]] const StreamSinkConfig& config() const { return config_; }

  /// Single-source path: enqueue `lines` (emission order) unmodified,
  /// blocking while the queue is full, and leave it empty; lines are
  /// written in hand-off order.
  void push(TraceLines& lines);

  /// Multi-source path: merge `sources` (each in emission order) with the
  /// pending lines, stable-sorted by (sim time, rack id), and enqueue every
  /// line with sim time < `watermark`; the rest stays pending.  Takes the
  /// lines: every source is left empty (its capacity kept for reuse).
  /// Call with every source of one epoch barrier, in a fixed source order,
  /// and watermark = next epoch start; finish with watermark = +infinity
  /// to flush the tail.
  void push_merge(std::span<TraceLines* const> sources, double watermark);

  /// Record ring evictions reported by the producer; a final
  /// trace_truncated footer is appended at close when the total is
  /// non-zero.
  void note_dropped(std::uint64_t dropped);

  /// Block until every queued line reached the ofstream and flush it, so
  /// a reader opening the file sees everything handed over so far.
  void flush();

  /// Flush, append the truncation footer if drops were reported, join the
  /// writer thread and close the file.  Idempotent; the destructor calls
  /// it.  Throws on a writer I/O error (destructor swallows instead).
  void close();

  /// Backpressure accounting (also mirrored into the metrics registry).
  [[nodiscard]] std::uint64_t stalls() const;
  [[nodiscard]] std::uint64_t events_written() const;
  [[nodiscard]] std::size_t peak_queue_depth() const;

  /// Checkpoint the sink: the durable byte offset (caller MUST flush()
  /// immediately before, so the writer thread is idle and tellp() is the
  /// exact watermark), the footer bookkeeping and the pending lines of the
  /// push_merge reorder buffer (TraceLines::fields, bounded by
  /// queue_capacity).  Non-const because tellp() is not.
  void save_state(checkpoint::Writer& w);
  /// Restore a resume-mode sink: truncate the file back to the recorded
  /// offset (a crash may have appended a torn tail past the checkpoint)
  /// and reopen it for append.  Must run before any push.
  void load_state(checkpoint::Reader& r);

 private:
  void writer_loop();
  /// Queue the lines of `batch` (in order), blocking while the queue is
  /// full, and leave it empty.
  void enqueue(TraceLines& batch);
  void throw_if_failed();

  StreamSinkConfig config_;
  MetricsRegistry* metrics_;
  std::ofstream out_;
  double last_written_t_ = 0.0;  ///< writer thread only, for the footer
  std::uint64_t dropped_total_ = 0;  ///< producer thread only

  // Producer thread only.
  /// push_merge's reorder buffer, in merged order: at most the lines of one
  /// epoch barrier that sort at/after the watermark — in practice empty,
  /// since an epoch's events all precede the next epoch's start.
  TraceLines pending_;
  /// Scratch reused across barriers: the merge's lines below the watermark
  /// and its sort keys.
  TraceLines ready_;
  struct MergeKey {
    double t;
    int rack;
    std::uint32_t source;  ///< 0 = pending_, s + 1 = sources[s]
    std::uint32_t line;
  };
  std::vector<MergeKey> keys_;

  mutable std::mutex mutex_;
  std::condition_variable space_cv_;  ///< producer: queue has room again
  std::condition_variable work_cv_;   ///< writer: lines or stop arrived
  // Guarded by mutex_: the queued bytes, their line count and last sim time.
  std::string queue_;
  std::size_t queue_lines_ = 0;
  double queue_last_t_ = 0.0;
  bool writing_ = false;  ///< writer holds a swapped-out batch mid-write
  bool stop_ = false;
  bool failed_ = false;
  std::string error_;
  std::uint64_t stalls_ = 0;
  std::uint64_t events_written_ = 0;
  std::size_t peak_queue_depth_ = 0;
  std::thread writer_;
  bool closed_ = false;
};

}  // namespace greenhetero::telemetry
