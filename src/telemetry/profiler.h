// Scoped in-process profiler riding the GH_SPAN phase tags.
//
// Every GH_SPAN scope (span.h) names a control-loop phase ("epoch", "plan",
// "solve", ...).  When TelemetryConfig::profile is on, the ambient
// Telemetry's Profiler attributes three costs to the *path* of the open
// spans (tags joined by '/', e.g. "epoch/plan/solve"):
//
//   - wall nanoseconds (the span's own steady-clock reading, the same
//     duration its gh_span_ns histogram observes),
//   - thread-CPU nanoseconds (CLOCK_THREAD_CPUTIME_ID; 0 where the clock
//     is unavailable), and
//   - heap allocations (bytes + counts, via the global operator new
//     replacement in profiler.cpp — compiled in only when telemetry is).
//
// Each path keeps inclusive totals and self totals (inclusive minus the
// child spans).  Aggregation is deterministic by construction: a rack's
// epoch runs on exactly one thread, every Profiler belongs to exactly one
// rack's Telemetry, and the fleet merges the per-rack reports in rack
// order — so every field except the *_ns timings is byte-identical at any
// --threads N.  The *_ns fields are wall-clock measurements and sit
// outside the byte-identity guarantees, exactly like "span" events and the
// gh_span_ns latency histogram.
//
// Cost model: with -DGH_TELEMETRY=OFF, GH_SPAN compiles to (void)0 and the
// allocation hooks are not compiled, so the profiler is zero-cost.  With
// telemetry compiled in but profile=false, ScopedSpan pays one enabled()
// check and the allocation hooks two thread-local increments per
// allocation; the thread-CPU clock is only read while profiling.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace greenhetero::telemetry {

/// Aggregated cost of one phase path.  Inclusive fields cover the whole
/// span; self_* subtract the child spans (bookkeeping for opening a child
/// lands in the parent's self cost).
struct ProfileNode {
  std::uint64_t calls = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t self_wall_ns = 0;
  std::int64_t self_cpu_ns = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t self_alloc_bytes = 0;
  std::uint64_t self_alloc_count = 0;
};

/// path -> node.  An ordered map so every export walks the phase tree in
/// one deterministic (lexicographic) order.
using ProfileReport = std::map<std::string, ProfileNode>;

/// The calling thread's lifetime allocation tally (monotonic; bytes
/// requested from operator new and number of allocations).  Always zero in
/// a -DGH_TELEMETRY=OFF build.
struct ThreadAllocCounters {
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};
[[nodiscard]] ThreadAllocCounters thread_alloc_counters();

class Profiler {
 public:
  explicit Profiler(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a frame for `name` under the currently open path.  Baselines are
  /// captured after the path/node bookkeeping so a frame's own setup cost
  /// is charged to its parent, not to itself; the caller reads the wall
  /// clock after this returns.
  void begin(std::string_view name);
  /// Close the innermost frame, whose caller measured `wall_ns` of wall
  /// time, and fold its deltas into the path's node (no-op when nothing is
  /// open — a stray end() must not corrupt).
  void end(std::int64_t wall_ns);

  [[nodiscard]] std::size_t open_depth() const { return stack_.size(); }
  [[nodiscard]] const ProfileReport& report() const { return nodes_; }
  void clear();

 private:
  struct Frame {
    ProfileNode* node = nullptr;
    std::size_t path_len = 0;  ///< path_ length before this frame opened
    std::int64_t cpu_begin = 0;
    std::uint64_t bytes_begin = 0;
    std::uint64_t count_begin = 0;
    // Accumulated inclusive deltas of already-closed children.
    std::int64_t child_wall = 0;
    std::int64_t child_cpu = 0;
    std::uint64_t child_bytes = 0;
    std::uint64_t child_count = 0;
  };

  bool enabled_;
  ProfileReport nodes_;
  std::vector<Frame> stack_;
  std::string path_;  ///< '/'-joined tags of the open frames
};

/// Sum `from` into `into`, node by node (path-keyed).  The fleet calls this
/// coordinator-first then rack 0..N-1, so the merged report is independent
/// of which worker thread stepped which rack.
void merge_profile(ProfileReport& into, const ProfileReport& from);

/// Deterministic JSON document: a "phases" array (one object per path, the
/// tree encoded by the '/'-separated paths and a "depth" field) plus a
/// "flat" array aggregated per leaf tag.  One object per line so filters
/// can drop the wall-clock *_ns fields line-wise.
[[nodiscard]] std::string profile_to_json(const ProfileReport& report);

/// profile_to_json() through the shared atomic-write helper (temp file +
/// rename).  Throws TelemetryError on I/O failure.
void save_profile_json(const ProfileReport& report,
                       const std::filesystem::path& path);

}  // namespace greenhetero::telemetry
