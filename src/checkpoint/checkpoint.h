// Durable checkpoint container.
//
// A snapshot file is a fixed header followed by an opaque serialized
// payload (serializer.h):
//
//   bytes 0..7    magic "GHCKPT01"
//   u32           snapshot version (kSnapshotVersion; layout contract)
//   u64           epoch index the snapshot was taken at
//   u64           config hash (scenario fingerprint; resume refuses a
//                 snapshot taken under a different scenario)
//   u64           payload size in bytes
//   u64           XXH64 checksum of the payload (seed 0, 8-byte words
//                 read little-endian, so every host computes the same value)
//   payload
//
// Files are written as `ckpt-<epoch>.bin` via temp-file + rename, so a
// crash during a checkpoint leaves the previous complete snapshot and at
// worst a stale `.tmp` — never a torn `ckpt-*.bin`.  `load_latest` scans
// newest-first and skips anything that fails validation, so resume always
// lands on the newest snapshot that was durably completed.  A directory
// holds one run's snapshots: each write removes every snapshot of a later
// epoch (left by an earlier run that got further), so a resume never lands
// on another run's state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint/serializer.h"

namespace greenhetero::checkpoint {

/// Bump on any serialized-layout change; old snapshots are refused.
/// v7: the streaming sink's pending tail holds encoded lines (t, rack,
/// line bytes), not trace events.  v8: so do the trace ring and the flight
/// recorder (TraceLines::fields), and the ring no longer stores its byte
/// estimate.  v9: the header checksum is XXH64 instead of FNV-1a; the
/// payload layout is v8's.
inline constexpr std::uint32_t kSnapshotVersion = 9;

/// Streaming XXH64 (seed 0): update() over consecutive chunks, then
/// digest(), equals xxh64() of their concatenation however the bytes were
/// split.  Four independent 8-byte lanes, so it runs at memory speed where
/// FNV-1a's byte-at-a-time chain did not.
class Xxh64 {
 public:
  void update(std::string_view data);
  [[nodiscard]] std::uint64_t digest() const;

  static constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  static constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
  static constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
  static constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
  static constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

 private:
  std::uint64_t lanes_[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  std::uint64_t total_ = 0;
  /// The bytes of a 32-byte stripe that is not yet complete.
  unsigned char tail_[32] = {};
  std::size_t tail_size_ = 0;
};

/// XXH64 (seed 0) of one byte range: the snapshot payload checksum.
[[nodiscard]] std::uint64_t xxh64(std::string_view data);

/// A validated snapshot read back from disk.
struct Snapshot {
  std::uint64_t epoch_index = 0;
  std::uint64_t config_hash = 0;
  std::string payload;
  std::filesystem::path path;
};

/// Writes `dir/ckpt-<epoch>.bin` atomically, creating `dir` if needed.
/// The payload is given as consecutive chunks: the checksum folds over
/// them in order and the file holds the header, then each chunk, with no
/// whole-payload copy.  After the rename (never before — the new snapshot
/// must be durable first), snapshots of a later epoch than `epoch_index`
/// are removed whatever `keep_last` says, and when `keep_last` > 0 older
/// snapshots beyond the newest `keep_last` are pruned.
void write_snapshot(const std::filesystem::path& dir,
                    std::uint64_t epoch_index, std::uint64_t config_hash,
                    std::span<const std::string_view> payload,
                    int keep_last = 2);

/// All `ckpt-*.bin` files in `dir`, sorted by ascending epoch index.
[[nodiscard]] std::vector<std::filesystem::path> list_snapshots(
    const std::filesystem::path& dir);

/// Reads and fully validates one snapshot file; throws CheckpointError on
/// a bad magic, unsupported version, size mismatch, or checksum failure
/// (naming the checksum the header holds and the one the payload hashes
/// to).
[[nodiscard]] Snapshot load_snapshot(const std::filesystem::path& path);

/// The newest snapshot in `dir` that validates; corrupt or torn files are
/// skipped.  Returns nullopt when the directory holds no valid snapshot.
[[nodiscard]] std::optional<Snapshot> load_latest(
    const std::filesystem::path& dir);

}  // namespace greenhetero::checkpoint
