// Shared helpers for tests that read a run's trace.
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

}  // namespace greenhetero::testtrace
