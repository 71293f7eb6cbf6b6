// Shared helpers for tests that read a run's trace or compare its metrics.
//
// The streaming sink is the only way trace events leave a run, and a run
// without one builds no events, so a test that inspects a trace points
// RunConfig::trace_stream at a scratch file and reads the file back.
// Header-only, like generators.h.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/trace_analyzer.h"
#include "telemetry/metrics.h"
#include "telemetry/stream_sink.h"
#include "util/json.h"

namespace greenhetero::testtrace {

/// Unique per-process scratch directory, removed on destruction (ctest may
/// run several processes of one test binary concurrently).
class ScratchDir {
 public:
  explicit ScratchDir(std::string_view tag = "gh-test") {
    static std::atomic<int> counter{0};
    dir_ = std::filesystem::temp_directory_path() /
           (std::string(tag) + "-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return dir_; }
  [[nodiscard]] std::filesystem::path operator/(const std::string& name) const {
    return dir_ / name;
  }

 private:
  std::filesystem::path dir_;
};

inline std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Close the runner's (RackSimulator or Fleet) streaming sink and return the
/// bytes it wrote.  Closing is idempotent, so this may be called repeatedly.
template <typename Runner>
std::string streamed_trace(Runner& runner) {
  telemetry::StreamingTraceSink* sink = runner.stream();
  EXPECT_NE(sink, nullptr) << "the run has no streaming sink";
  if (sink == nullptr) return {};
  sink->close();
  return read_file(sink->config().path);
}

/// streamed_trace(), parsed: one JSON object per event, in file order.
template <typename Runner>
std::vector<json::Value> streamed_events(Runner& runner) {
  telemetry::StreamingTraceSink* sink = runner.stream();
  EXPECT_NE(sink, nullptr) << "the run has no streaming sink";
  if (sink == nullptr) return {};
  sink->close();
  return analysis::load_trace(sink->config().path).events;
}

inline std::size_t count_phase(const std::vector<json::Value>& events,
                               std::string_view phase) {
  std::size_t n = 0;
  for (const json::Value& event : events) {
    if (event.string_or("phase", "") == phase) ++n;
  }
  return n;
}

/// Prometheus rendering of a snapshot minus its wall-clock series: the
/// *_ns latency histograms, the *_per_sec throughput gauges and the
/// streaming sink's queue depth, residency and stall series depend on
/// machine timing, not on the simulation.  Everything else must match
/// across thread counts, shard counts and resumes.
inline std::string deterministic_prometheus(
    const telemetry::MetricsSnapshot& snapshot) {
  telemetry::MetricsSnapshot filtered;
  for (const telemetry::SnapshotEntry& entry : snapshot.entries) {
    if (entry.name.ends_with("_ns")) continue;
    if (entry.name.ends_with("_per_sec")) continue;
    if (entry.name.starts_with("gh_trace_queue_")) continue;
    if (entry.name == "gh_trace_stalls_total") continue;
    filtered.entries.push_back(entry);
  }
  return filtered.to_prometheus();
}

}  // namespace greenhetero::testtrace
