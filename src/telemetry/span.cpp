#include "telemetry/span.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracing.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace greenhetero::telemetry {

SpanCollector::SpanCollector(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("span collector: capacity must be positive");
  }
}

bool SpanCollector::add(SpanRecord record) {
  if (records_.size() >= capacity_) {
    if (dropped_ == 0) {
      GH_WARN << "span collector full (capacity " << capacity_
              << "): further spans are being dropped";
    }
    ++dropped_;
    return false;
  }
  records_.push_back(std::move(record));
  return true;
}

void write_chrome_trace(std::ostream& out,
                        std::span<const SpanRecord> spans) {
  std::vector<const SpanRecord*> ordered;
  ordered.reserve(spans.size());
  std::int64_t origin = 0;
  for (const SpanRecord& s : spans) {
    if (ordered.empty() || s.wall_begin_ns < origin) origin = s.wall_begin_ns;
    ordered.push_back(&s);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     if (a->wall_begin_ns != b->wall_begin_ns) {
                       return a->wall_begin_ns < b->wall_begin_ns;
                     }
                     return a->depth < b->depth;
                   });
  // Assemble the whole document, then emit it in one write under the shared
  // trace-writer lock, so concurrent exports never interleave partial lines.
  std::string buffer = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord* s : ordered) {
    if (!first) buffer += ',';
    first = false;
    buffer += "\n{\"ph\":\"X\",\"cat\":\"greenhetero\",\"name\":";
    append_json_escaped(buffer, s->name);
    buffer += ",\"pid\":";
    append_number(buffer, static_cast<double>(s->rack_id));
    buffer += ",\"tid\":0,\"ts\":";
    append_number(buffer,
                  static_cast<double>(s->wall_begin_ns - origin) / 1e3);
    buffer += ",\"dur\":";
    append_number(buffer, static_cast<double>(s->wall_dur_ns) / 1e3);
    buffer += ",\"args\":{\"depth\":";
    append_number(buffer, static_cast<double>(s->depth));
    buffer += ",\"sim_begin_min\":";
    append_number(buffer, s->sim_begin_min);
    buffer += ",\"sim_end_min\":";
    append_number(buffer, s->sim_end_min);
    buffer += "}}";
  }
  buffer += "\n]}\n";
  const std::lock_guard<std::mutex> lock(trace_writer_mutex());
  out << buffer;
}

void SpanCollector::write_chrome_trace(std::ostream& out) const {
  telemetry::write_chrome_trace(out, records_);
}

void SpanCollector::save_chrome_trace(
    const std::filesystem::path& path) const {
  std::ostringstream out;
  write_chrome_trace(out);
  try {
    util::write_file_atomic(path, out.str());
  } catch (const util::AtomicWriteError& e) {
    throw std::runtime_error("span collector: " + std::string(e.what()));
  }
}

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Telemetry::open_span(SpanTag tag) {
  const std::uint32_t parent =
      open_spans_.empty() ? Profiler::kRoot : open_spans_.back().node;
  OpenSpan& span = open_spans_.emplace_back(
      OpenSpan{tag, Profiler::kRoot, now_.value()});
  // The push, the node lookup and the baselines come before the wall clock
  // (read first again in close_span), so they land in the parent's self
  // cost, outside the measured duration.
  if (profiler_.enabled()) {
    span.node = profiler_.open(parent, tag);
    span.allocs_begin = thread_alloc_counters();
  }
  span.wall_begin_ns = wall_now_ns();
}

void Telemetry::close_span() {
  const std::int64_t wall_end_ns = wall_now_ns();
  const OpenSpan& span = open_spans_.back();
  const std::int64_t wall_dur_ns = wall_end_ns - span.wall_begin_ns;
  if (profiler_.enabled()) {
    const ThreadAllocCounters allocs = thread_alloc_counters();
    profiler_.close(span.node, wall_dur_ns,
                    {allocs.bytes - span.allocs_begin.bytes,
                     allocs.count - span.allocs_begin.count});
  }
  metrics_.histogram("gh_span_ns", span.tag.index())
      .observe(static_cast<double>(wall_dur_ns));
  if (config_.spans) {
    const int depth = static_cast<int>(open_spans_.size()) - 1;
    // Mirror into the JSONL trace so the analyzer sees one merged stream
    // (span records are opt-in precisely because wall time is
    // non-deterministic).
    if (traced_) {
      emit("span", {{"name", span.tag.name()},
                    {"depth", depth},
                    {"t0", span.sim_begin_min},
                    {"dur_ns", wall_dur_ns}});
    }
    SpanRecord record;
    record.name = span.tag.name();
    record.rack_id = config_.rack_id;
    record.depth = depth;
    record.sim_begin_min = span.sim_begin_min;
    record.sim_end_min = now_.value();
    record.wall_begin_ns = span.wall_begin_ns;
    record.wall_dur_ns = wall_dur_ns;
    if (!spans_.add(record)) {
      metrics_.counter("gh_spans_dropped_total").increment();
    }
  }
  open_spans_.pop_back();
}

#if GH_TELEMETRY_ENABLED

ScopedSpan::ScopedSpan(SpanTag tag) : sink_(timer()) {
  if (sink_ != nullptr) sink_->open_span(tag);
}

ScopedSpan::~ScopedSpan() {
  if (sink_ != nullptr) sink_->close_span();
}

#endif  // GH_TELEMETRY_ENABLED

}  // namespace greenhetero::telemetry
