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

int SpanCollector::begin() { return open_depth_++; }

void SpanCollector::end(SpanRecord record) {
  if (open_depth_ > 0) --open_depth_;
  if (records_.size() >= capacity_) {
    if (dropped_ == 0) {
      GH_WARN << "span collector full (capacity " << capacity_
              << "): further spans are being dropped";
    }
    ++dropped_;
    return;
  }
  records_.push_back(std::move(record));
}

void SpanCollector::clear() {
  open_depth_ = 0;
  dropped_ = 0;
  records_.clear();
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
    buffer += format_number(static_cast<double>(s->rack_id));
    buffer += ",\"tid\":0,\"ts\":";
    buffer +=
        format_number(static_cast<double>(s->wall_begin_ns - origin) / 1e3);
    buffer += ",\"dur\":";
    buffer += format_number(static_cast<double>(s->wall_dur_ns) / 1e3);
    buffer += ",\"args\":{\"depth\":";
    buffer += format_number(static_cast<double>(s->depth));
    buffer += ",\"sim_begin_min\":";
    buffer += format_number(s->sim_begin_min);
    buffer += ",\"sim_end_min\":";
    buffer += format_number(s->sim_end_min);
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

#if GH_TELEMETRY_ENABLED

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ScopedSpan::ScopedSpan(SpanTag tag) : tag_(tag) {
  sink_ = current();
  if (sink_ == nullptr) return;
  if (sink_->config().spans) {
    record_ = true;
    depth_ = sink_->spans().begin();
    sim_begin_min_ = sink_->now().value();
  }
  if (sink_->profiler().enabled()) {
    profiler_ = &sink_->profiler();
    profiler_->begin(tag_.name());
  }
  // The clock is read last (and first in the destructor), so the
  // bookkeeping above and below lands outside the measured duration.
  wall_begin_ns_ = wall_now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (sink_ == nullptr) return;
  const std::int64_t wall_dur_ns = wall_now_ns() - wall_begin_ns_;
  if (profiler_ != nullptr) profiler_->end(wall_dur_ns);
  sink_->metrics()
      .histogram("gh_span_ns", tag_.index())
      .observe(static_cast<double>(wall_dur_ns));
  if (!record_) return;
  SpanRecord record;
  record.name = tag_.name();
  record.rack_id = sink_->rack_id();
  record.depth = depth_;
  record.sim_begin_min = sim_begin_min_;
  record.sim_end_min = sink_->now().value();
  record.wall_begin_ns = wall_begin_ns_;
  record.wall_dur_ns = wall_dur_ns;
  // Mirror into the JSONL trace so the analyzer sees one merged stream
  // (span records are opt-in precisely because wall time is
  // non-deterministic).
  sink_->emit("span", {{"name", tag_.name()},
                       {"depth", depth_},
                       {"t0", sim_begin_min_},
                       {"dur_ns", wall_dur_ns}});
  const std::uint64_t dropped_before = sink_->spans().dropped();
  sink_->spans().end(std::move(record));
  if (sink_->spans().dropped() > dropped_before) {
    sink_->metrics().counter("gh_spans_dropped_total").increment();
  }
}

#endif  // GH_TELEMETRY_ENABLED

}  // namespace greenhetero::telemetry
