// Scoped in-process profiler riding the GH_SPAN phase tags.
//
// Every GH_SPAN scope (span.h) names a control-loop phase ("epoch", "plan",
// "solve", ...).  When TelemetryConfig::profile is on, the ambient
// Telemetry's Profiler attributes each closed span to a node of its phase
// tree: one node per (parent node, SpanTag) pair, so "epoch/plan/solve" is
// the solve node under the plan node under the epoch node.  A node sums
//
//   - calls and wall nanoseconds (the span's own steady-clock reading, the
//     same duration its gh_span_ns histogram observes),
//   - heap allocations (bytes + counts, via the global operator new
//     replacement in profiler.cpp — compiled in only when telemetry is),
//   - thread-CPU nanoseconds (CLOCK_THREAD_CPUTIME_ID; 0 where the clock
//     is unavailable), for depth-0 spans ("epoch", "pretrain") only.
//
// Opening and closing a span touch node indices only; the '/'-joined path
// strings and the self totals (inclusive minus the child nodes) are built
// by report(), when a report is exported.
//
// Aggregation is deterministic by construction: a rack's epoch runs on
// exactly one thread, every Profiler belongs to exactly one rack's
// Telemetry, and the fleet merges the per-rack reports in rack order — so
// every field except the *_ns timings is byte-identical at any --threads N.
// The *_ns fields are wall-clock measurements and sit outside the
// byte-identity guarantees, exactly like "span" events and the gh_span_ns
// latency histogram.
//
// Cost model: with -DGH_TELEMETRY=OFF, GH_SPAN compiles to (void)0 and the
// allocation hooks are not compiled, so the profiler is zero-cost.  With
// telemetry compiled in but profile=false, a span pays one enabled() check
// and the allocation hooks two thread-local increments per allocation.
// While profiling, the thread-CPU clock is read only when a root span opens
// and closes: it is a syscall (275-350 ns against 32-40 ns for the steady
// clock on a 4-vCPU Xeon VM), so per-phase CPU readings would mostly
// measure themselves.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace greenhetero::telemetry {

/// Aggregated cost of one phase path.  Inclusive fields cover the whole
/// span; self_* subtract the child spans (bookkeeping for opening a child
/// lands in the parent's self cost).  cpu_ns is measured at depth 0 only.
struct ProfileNode {
  std::uint64_t calls = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t self_wall_ns = 0;
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
  /// The node above every depth-0 span; it is nobody's child, so 0 also
  /// marks a child slot that has no node yet.
  static constexpr std::uint32_t kRoot = 0;

  explicit Profiler(bool enabled = false);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// The node of span `tag` opened under `parent` (kRoot at depth 0),
  /// created on first use; enabled profilers only.  A depth-0 open reads
  /// the thread-CPU clock.
  std::uint32_t open(std::uint32_t parent, SpanTag tag);
  /// Fold one closed call of `node`: `wall_ns` of wall time and `allocs`
  /// made while it was open.  A depth-0 close reads the thread-CPU clock.
  void close(std::uint32_t node, std::int64_t wall_ns,
             ThreadAllocCounters allocs);

  /// The path-keyed phase tree, built on each call; exact whenever no span
  /// is open.
  [[nodiscard]] ProfileReport report() const;
  /// Drop every node.  Call it with no span open: only close() tolerates
  /// a node it dropped.
  void clear();

 private:
  struct Node {
    std::uint32_t parent = kRoot;
    std::size_t tag = 0;  ///< catalog::kSpanTags index
    std::array<std::uint32_t, catalog::kSpanTags.size()> children{};
    ProfileNode totals;  ///< inclusive fields; report() derives self_*
  };

  bool enabled_;
  std::vector<Node> nodes_;  ///< nodes_[kRoot] is the root
  std::int64_t root_cpu_begin_ = 0;
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
