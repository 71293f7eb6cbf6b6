// Offline reader for the profiler's prof.json behind `greenhetero analyze
// --perf`.
//
// Loads the document profile_to_json (telemetry/profiler.h) writes — a
// "phases" array carrying the '/'-path-encoded span tree and a "flat" array
// aggregated per leaf tag — and renders two tables:
//
//  - the phase tree, indented by depth, with inclusive wall time, thread
//    CPU time where the file carries it, self wall time and self
//    allocations;
//  - a top-N hot-tag table ordered by self wall time (self costs partition
//    the run, so the column sums to the profiled total without double
//    counting).
//
// Version 2 files carry cpu_ns on depth-0 rows only (the profiler reads
// the thread-CPU clock at root spans); version 1 files carried CPU fields
// on every row and are still read.  Loading is strict like load_trace: a
// missing or foreign "schema" marker or an unsupported "version" is an
// AnalyzerError, not a guess.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/trace_analyzer.h"

namespace greenhetero::analysis {

/// One phase path from the "phases" array (tree row) or one leaf tag from
/// the "flat" array (flat row; path == name and depth == 0 there, and the
/// inclusive fields mirror the self fields).  cpu_ns is 0 where the row
/// carries none.
struct PerfPhase {
  std::string path;
  std::string name;
  int depth = 0;
  std::uint64_t calls = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t self_wall_ns = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t self_alloc_bytes = 0;
  std::uint64_t self_alloc_count = 0;
};

struct PerfProfile {
  int version = 0;
  std::vector<PerfPhase> phases;  ///< tree rows, file (= path) order
  std::vector<PerfPhase> flat;    ///< per-tag rows, file (= name) order
};

/// Parse a prof.json file.  Throws AnalyzerError on I/O failure, a missing
/// or foreign "schema" marker, an unsupported "version", or rows that do
/// not match the profile schema.
[[nodiscard]] PerfProfile load_profile(const std::filesystem::path& path);

/// Human-readable report: the indented phase tree plus the top-`top_n`
/// flat tags by self wall time, ties by name (all of them when top_n == 0).
void print_perf_report(std::ostream& out, const PerfProfile& profile,
                       std::size_t top_n);

}  // namespace greenhetero::analysis
