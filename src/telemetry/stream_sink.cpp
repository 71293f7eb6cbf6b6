#include "telemetry/stream_sink.h"

#include <algorithm>
#include <ios>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "checkpoint/serializer.h"
#include "telemetry/metrics.h"

namespace greenhetero::telemetry {

namespace {

bool event_before(const TraceEvent& a, const TraceEvent& b) {
  if (a.sim_minutes != b.sim_minutes) return a.sim_minutes < b.sim_minutes;
  return a.rack_id < b.rack_id;
}

}  // namespace

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

void StreamingTraceSink::push(std::vector<TraceEvent> events) {
  enqueue(std::move(events));
}

void StreamingTraceSink::push_merge(std::vector<TraceEvent> batch,
                                    double watermark) {
  if (pending_.empty()) {
    pending_ = std::move(batch);
  } else {
    pending_.reserve(pending_.size() + batch.size());
    for (TraceEvent& event : batch) pending_.push_back(std::move(event));
  }
  // Stable: (t, rack) ties are same-source events in emission order, and
  // epoch-major arrival keeps each source's events consecutive, so this
  // incremental sort reproduces a stable sort of the whole run.
  std::stable_sort(pending_.begin(), pending_.end(), event_before);
  const auto split = std::lower_bound(
      pending_.begin(), pending_.end(), watermark,
      [](const TraceEvent& e, double w) { return e.sim_minutes < w; });
  if (split == pending_.begin()) return;
  std::vector<TraceEvent> ready;
  ready.reserve(static_cast<std::size_t>(split - pending_.begin()));
  for (auto it = pending_.begin(); it != split; ++it) {
    ready.push_back(std::move(*it));
  }
  pending_.erase(pending_.begin(), split);
  enqueue(std::move(ready));
}

void StreamingTraceSink::note_dropped(std::uint64_t dropped) {
  dropped_total_ += dropped;
}

void StreamingTraceSink::enqueue(std::vector<TraceEvent> events) {
  std::size_t offset = 0;
  while (offset < events.size()) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.size() >= config_.queue_capacity) {
      // Backpressure: the producer (the simulation) waits for the writer,
      // keeping sink memory capped at queue_capacity events.
      ++stalls_;
      if (metrics_ != nullptr) {
        metrics_->counter("gh_trace_stalls_total").increment();
      }
      space_cv_.wait(lock, [this] {
        return queue_.size() < config_.queue_capacity || failed_;
      });
    }
    throw_if_failed();
    const std::size_t room = config_.queue_capacity - queue_.size();
    const std::size_t take = std::min(room, events.size() - offset);
    for (std::size_t i = 0; i < take; ++i) {
      queue_.push_back(std::move(events[offset + i]));
    }
    offset += take;
    peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
    if (metrics_ != nullptr) {
      metrics_->gauge("gh_trace_queue_depth")
          .set(static_cast<double>(queue_.size()));
      metrics_->counter("gh_trace_events_streamed_total")
          .increment(static_cast<double>(take));
      // Residency: the depth each producer batch left behind.  A
      // distribution living near the capacity bound means the writer, not
      // the simulation, is the bottleneck.  Wall-clock-dependent (the
      // writer drains asynchronously), so excluded from byte-identity
      // comparisons like the stall/depth series.
      metrics_->histogram("gh_trace_queue_residency")
          .observe(static_cast<double>(queue_.size()));
    }
    lock.unlock();
    work_cv_.notify_one();
  }
}

void StreamingTraceSink::writer_loop() {
  for (;;) {
    std::vector<TraceEvent> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return !queue_.empty() || stop_; });
      if (queue_.empty() && stop_) return;
      batch.swap(queue_);
      writing_ = true;
    }
    space_cv_.notify_all();
    std::string buffer;
    for (const TraceEvent& event : batch) {
      buffer += event.to_json();
      buffer += '\n';
      last_written_t_ = event.sim_minutes;
    }
    out_ << buffer;
    const bool ok = static_cast<bool>(out_);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      events_written_ += batch.size();
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
    space_cv_.wait(lock,
                   [this] { return (queue_.empty() && !writing_) || failed_; });
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
    std::string buffer;
    for (const TraceEvent& event : pending_) {
      buffer += event.to_json();
      buffer += '\n';
      last_written_t_ = event.sim_minutes;
    }
    pending_.clear();
    out_ << buffer;
  }
  if (dropped_total_ > 0) {
    out_ << make_truncation_footer(last_written_t_, dropped_total_).to_json()
         << '\n';
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
  w.seq(pending_.size());
  for (const TraceEvent& event : pending_) event.save_state(w);
  const std::lock_guard<std::mutex> lock(mutex_);
  w.u64(stalls_);
  w.u64(events_written_);
}

void StreamingTraceSink::load_state(checkpoint::Reader& r) {
  const std::uint64_t offset = r.u64();
  last_written_t_ = r.f64();
  dropped_total_ = r.u64();
  const std::size_t count = r.seq();
  pending_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    TraceEvent event;
    event.load_state(r);
    pending_.push_back(std::move(event));
  }
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
