// Crash-recovery fuzzer: SIGKILL a real fleet or simulate run mid-flight,
// resume it from its checkpoints, and prove the outputs come out
// byte-identical.
//
// Each run derives a scenario from (seed, run index) — a fleet (rack count,
// duration, thread count, grid-share mode) or, about a quarter of the time,
// a standalone 2-5 day `simulate` run — then executes it twice through the
// actual `greenhetero` binary:
//
//   reference  — uninterrupted, checkpointing enabled, to completion;
//   crash      — same scenario in its own directory, SIGKILLed after a
//                random 25-250 ms delay (possibly several times, each
//                restart via --resume), then resumed once more to
//                completion.
//
// A run fails when the final streamed trace or rollup files differ by a
// single byte, or the metrics exposition differs outside the wall-clock
// series (latency histograms and queue/stall gauges, which legitimately
// depend on timing).  Kills that land before the first checkpoint, between
// epochs, mid-finalization or after completion are all fair game — resume
// must cope with every one of them.
//
// POSIX-only (fork/execv/SIGKILL); on other platforms run_crash_fuzzer
// reports zero runs executed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace greenhetero::check {

struct CrashFuzzOptions {
  /// Path to the greenhetero CLI binary to drive (the fuzzer execs it).
  std::string binary;
  /// Scratch directory for per-run outputs, checkpoints and child logs;
  /// created if missing, and removed again if the fuzzer made it and every
  /// run was clean (only failed runs keep their outputs).
  std::filesystem::path work_dir;
  std::uint64_t seed = 1;
  int runs = 5;
  /// Upper bound on SIGKILLs delivered per run (the actual count is drawn
  /// per run in [1, max_kills]).
  int max_kills = 3;
  /// Progress / failure narration (null = silent).
  std::ostream* log = nullptr;
};

struct CrashFuzzReport {
  int runs_executed = 0;
  int runs_failed = 0;
  /// SIGKILLs that landed on a still-running child.
  int kills_delivered = 0;
  /// --resume invocations issued (kills + the final completing run each).
  int resumes = 0;
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return runs_failed == 0; }
};

/// Run the crash-recovery fuzz loop.  Throws std::runtime_error when the
/// harness itself cannot operate (missing binary, unwritable work dir);
/// scenario failures land in the report instead.
[[nodiscard]] CrashFuzzReport run_crash_fuzzer(const CrashFuzzOptions& options);

}  // namespace greenhetero::check
