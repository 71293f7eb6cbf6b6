// Atomic file replacement.
//
// Every file artifact the simulator produces non-incrementally (metrics
// snapshots, Chrome spans, rollup series, fuzzer
// repro files, checkpoints) goes through the same temp-and-rename dance: a
// process killed mid-write must leave either the previous complete file or
// no file — never a torn one.  Extracted from the `--metrics-out` flush
// introduced with the streaming pipeline so all writers share one
// implementation.
#pragma once

#include <filesystem>
#include <span>
#include <stdexcept>
#include <string_view>

namespace greenhetero::util {

/// Thrown when the temp file cannot be created, written, or renamed.
class AtomicWriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes `body` to `path` by writing `path` + ".tmp" and renaming over the
/// destination.  The rename is atomic on POSIX filesystems, so a crash at
/// any point leaves the previous version of `path` intact.
void write_file_atomic(const std::filesystem::path& path,
                       std::string_view body);
/// The same for a body given as consecutive pieces, written in order.
void write_file_atomic(const std::filesystem::path& path,
                       std::span<const std::string_view> body);

}  // namespace greenhetero::util
