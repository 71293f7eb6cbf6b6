#include "telemetry/stream_sink.h"

#include <algorithm>
#include <ios>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "checkpoint/serializer.h"
#include "telemetry/metrics.h"

namespace greenhetero::telemetry {

StreamingTraceSink::StreamingTraceSink(StreamSinkConfig config,
                                       MetricsRegistry* metrics)
    : config_(std::move(config)), metrics_(metrics) {
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument(
        "stream sink: queue capacity must be positive");
  }
  if (!config_.resume) {
    out_.open(config_.path);
    if (!out_) {
      throw std::runtime_error("stream sink: cannot open '" +
                               config_.path.string() + "' for writing");
    }
    out_ << trace_header_json() << '\n';
  }
  writer_ = std::thread([this] { writer_loop(); });
}

StreamingTraceSink::~StreamingTraceSink() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; close() explicitly reports I/O errors.
  }
}

void StreamingTraceSink::push(TraceLines& lines) { enqueue(lines); }

void StreamingTraceSink::push_merge(std::span<TraceLines* const> sources,
                                    double watermark) {
  const auto source_of = [&](std::uint32_t source) -> const TraceLines& {
    return source == 0 ? pending_ : *sources[source - 1];
  };
  keys_.clear();
  for (std::uint32_t source = 0; source <= sources.size(); ++source) {
    const std::span<const TraceLines::Line> lines =
        source_of(source).lines();
    for (std::uint32_t i = 0; i < lines.size(); ++i) {
      keys_.push_back({lines[i].t, lines[i].rack, source, i});
    }
  }
  // (t, rack), ties in arrival order: pending lines first (they are already
  // merged), then each source in emission order — a stable sort of the
  // concatenation.  (t, rack) ties are same-source lines, and epoch-major
  // arrival keeps each source's lines consecutive, so this incremental
  // merge reproduces a stable sort of the whole run.
  std::sort(keys_.begin(), keys_.end(),
            [](const MergeKey& a, const MergeKey& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.rack != b.rack) return a.rack < b.rack;
              if (a.source != b.source) return a.source < b.source;
              return a.line < b.line;
            });
  const auto split = std::partition_point(
      keys_.begin(), keys_.end(),
      [watermark](const MergeKey& key) { return key.t < watermark; });
  ready_.clear();
  TraceLines carry;
  for (auto it = keys_.begin(); it != keys_.end(); ++it) {
    const TraceLines& from = source_of(it->source);
    (it < split ? ready_ : carry).append(from, from.lines()[it->line]);
  }
  pending_ = std::move(carry);
  for (TraceLines* lines : sources) lines->clear();
  enqueue(ready_);
}

void StreamingTraceSink::note_dropped(std::uint64_t dropped) {
  dropped_total_ += dropped;
}

void StreamingTraceSink::enqueue(TraceLines& batch) {
  const std::span<const TraceLines::Line> lines = batch.lines();
  const std::size_t count = lines.size();
  std::size_t offset = 0;
  while (offset < count) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_lines_ >= config_.queue_capacity) {
      // Backpressure: the producer (the simulation) waits for the writer,
      // keeping sink memory capped at queue_capacity lines.
      ++stalls_;
      if (metrics_ != nullptr) {
        metrics_->counter("gh_trace_stalls_total").increment();
      }
      space_cv_.wait(lock, [this] {
        return queue_lines_ < config_.queue_capacity || failed_;
      });
    }
    throw_if_failed();
    const std::size_t room = config_.queue_capacity - queue_lines_;
    const std::size_t take = std::min(room, count - offset);
    const TraceLines::Line& first = lines[offset];
    const TraceLines::Line& last = lines[offset + take - 1];
    queue_last_t_ = last.t;
    if (take == count) {
      batch.move_bytes_to(queue_);  // the whole batch: a buffer swap
    } else {
      queue_ += batch.bytes().substr(first.begin - lines.front().begin,
                                     last.begin + last.size - first.begin);
    }
    queue_lines_ += take;
    offset += take;
    peak_queue_depth_ = std::max(peak_queue_depth_, queue_lines_);
    if (metrics_ != nullptr) {
      metrics_->gauge("gh_trace_queue_depth")
          .set(static_cast<double>(queue_lines_));
      metrics_->counter("gh_trace_events_streamed_total")
          .increment(static_cast<double>(take));
      // Residency: the depth each producer batch left behind.  A
      // distribution living near the capacity bound means the writer, not
      // the simulation, is the bottleneck.  Wall-clock-dependent (the
      // writer drains asynchronously), so excluded from byte-identity
      // comparisons like the stall/depth series.
      metrics_->histogram("gh_trace_queue_residency")
          .observe(static_cast<double>(queue_lines_));
    }
    lock.unlock();
    work_cv_.notify_one();
  }
  batch.clear();
}

void StreamingTraceSink::writer_loop() {
  // Reused across batches: swapping it with the queue recycles its
  // capacity.
  std::string batch;
  for (;;) {
    std::size_t lines = 0;
    double last_t = 0.0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return queue_lines_ > 0 || stop_; });
      if (queue_lines_ == 0 && stop_) return;
      batch.swap(queue_);
      lines = queue_lines_;
      last_t = queue_last_t_;
      queue_lines_ = 0;
      writing_ = true;
    }
    space_cv_.notify_all();
    out_.write(batch.data(), static_cast<std::streamsize>(batch.size()));
    batch.clear();
    last_written_t_ = last_t;
    const bool ok = static_cast<bool>(out_);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      events_written_ += lines;
      writing_ = false;
      if (!ok && !failed_) {
        failed_ = true;
        error_ = "stream sink: write to '" + config_.path.string() +
                 "' failed";
      }
    }
    // Wake a flush()er waiting for the drain (and, on failure, a stalled
    // producer that would otherwise wait forever).
    space_cv_.notify_all();
  }
}

void StreamingTraceSink::flush() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    space_cv_.wait(lock, [this] {
      return (queue_lines_ == 0 && !writing_) || failed_;
    });
    throw_if_failed();
  }
  // The writer is idle (queue empty and its last batch accounted), so the
  // stream is safe to touch from this thread; the mutex hand-off above
  // ordered its writes before ours.
  out_.flush();
  if (!out_) {
    throw std::runtime_error("stream sink: flush of '" +
                             config_.path.string() + "' failed");
  }
}

void StreamingTraceSink::close() {
  if (closed_) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  closed_ = true;
  if (!pending_.empty()) {
    // Callers always finish with watermark = +inf; a leftover means a bug
    // upstream, but losing events silently would be worse — write them.
    out_ << pending_.bytes();
    last_written_t_ = pending_.lines().back().t;
    pending_.clear();
  }
  if (dropped_total_ > 0) {
    std::string footer;
    append_truncation_footer(footer, last_written_t_, dropped_total_);
    out_ << footer;
  }
  out_.flush();
  const bool ok = static_cast<bool>(out_);
  out_.close();
  throw_if_failed();
  if (!ok) {
    throw std::runtime_error("stream sink: write to '" +
                             config_.path.string() + "' failed");
  }
}

std::uint64_t StreamingTraceSink::stalls() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stalls_;
}

std::uint64_t StreamingTraceSink::events_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_written_;
}

std::size_t StreamingTraceSink::peak_queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return peak_queue_depth_;
}

void StreamingTraceSink::throw_if_failed() {
  if (failed_) throw std::runtime_error(error_);
}

void StreamingTraceSink::save_state(checkpoint::Writer& w) {
  // flush() just ran: the queue is empty and the writer thread idle, so
  // out_/last_written_t_ are safe to read here and tellp() marks exactly
  // the bytes that are durable.
  w.u64(static_cast<std::uint64_t>(std::streamoff(out_.tellp())));
  w.f64(last_written_t_);
  w.u64(dropped_total_);
  TraceLines::fields(std::as_const(pending_), w, config_.queue_capacity,
                     "stream sink");
  const std::lock_guard<std::mutex> lock(mutex_);
  w.u64(stalls_);
  w.u64(events_written_);
}

void StreamingTraceSink::load_state(checkpoint::Reader& r) {
  const std::uint64_t offset = r.u64();
  last_written_t_ = r.f64();
  dropped_total_ = r.u64();
  TraceLines::fields(pending_, r, config_.queue_capacity, "stream sink");
  const std::uint64_t stalls = r.u64();
  const std::uint64_t written = r.u64();
  // Drop whatever the crashed run appended past the checkpoint (possibly a
  // torn line) and continue from the durable watermark.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(config_.path, ec);
  if (ec) {
    throw std::runtime_error("stream sink: cannot stat '" +
                             config_.path.string() + "': " + ec.message());
  }
  if (size < offset) {
    throw std::runtime_error(
        "stream sink: '" + config_.path.string() +
        "' is shorter than the checkpointed watermark — wrong file?");
  }
  std::filesystem::resize_file(config_.path, offset, ec);
  if (ec) {
    throw std::runtime_error("stream sink: cannot truncate '" +
                             config_.path.string() + "': " + ec.message());
  }
  out_.open(config_.path, std::ios::app);
  if (!out_) {
    throw std::runtime_error("stream sink: cannot reopen '" +
                             config_.path.string() + "' for append");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  stalls_ = stalls;
  events_written_ = written;
}

}  // namespace greenhetero::telemetry
