#include "checkpoint/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "util/atomic_file.h"
#include "util/logging.h"

namespace greenhetero::checkpoint {

namespace {

constexpr std::string_view kMagic = "GHCKPT01";
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8 + 8;

/// ckpt-<epoch>.bin with a zero-padded epoch so lexical order == numeric.
std::string snapshot_name(std::uint64_t epoch_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%010llu.bin",
                static_cast<unsigned long long>(epoch_index));
  return buf;
}

std::optional<std::uint64_t> parse_epoch(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  if (!name.starts_with("ckpt-") || !name.ends_with(".bin")) {
    return std::nullopt;
  }
  const std::string digits = name.substr(5, name.size() - 5 - 4);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(digits);
}

}  // namespace

void write_snapshot(const std::filesystem::path& dir,
                    std::uint64_t epoch_index, std::uint64_t config_hash,
                    std::span<const std::string_view> payload,
                    int keep_last) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw CheckpointError("cannot create checkpoint directory " +
                          dir.string() + ": " + ec.message());
  }

  std::uint64_t size = 0;
  std::uint64_t checksum = kFnv1aBasis;
  for (std::string_view chunk : payload) {
    size += chunk.size();
    checksum = fnv1a(chunk, checksum);
  }
  Writer header;
  for (char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kSnapshotVersion);
  header.u64(epoch_index);
  header.u64(config_hash);
  header.u64(size);
  header.u64(checksum);

  std::vector<std::string_view> body;
  body.reserve(payload.size() + 1);
  body.push_back(header.buffer());
  body.insert(body.end(), payload.begin(), payload.end());
  try {
    util::write_file_atomic(dir / snapshot_name(epoch_index), body);
  } catch (const util::AtomicWriteError& e) {
    throw CheckpointError(e.what());
  }

  if (keep_last > 0) {
    std::vector<std::filesystem::path> all = list_snapshots(dir);
    if (all.size() > static_cast<std::size_t>(keep_last)) {
      for (std::size_t i = 0; i < all.size() - keep_last; ++i) {
        std::filesystem::remove(all[i], ec);  // best-effort prune
      }
    }
  }
}

std::vector<std::filesystem::path> list_snapshots(
    const std::filesystem::path& dir) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (const auto epoch = parse_epoch(entry.path())) {
      found.emplace_back(*epoch, entry.path());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::filesystem::path> paths;
  paths.reserve(found.size());
  for (auto& [epoch, path] : found) paths.push_back(std::move(path));
  return paths;
}

Snapshot load_snapshot(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError("cannot open checkpoint: " + path.string());
  }
  // Header first, then the payload straight into its string: one
  // allocation and one read, however large the snapshot.
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  if (file_size < kHeaderBytes) {
    throw CheckpointError("checkpoint too short: " + path.string() + " (" +
                          std::to_string(file_size) + " bytes)");
  }
  char raw_header[kHeaderBytes];
  in.read(raw_header, kHeaderBytes);
  const std::string_view header_bytes(raw_header, kHeaderBytes);
  if (header_bytes.substr(0, kMagic.size()) != kMagic) {
    throw CheckpointError("not a checkpoint file (bad magic): " +
                          path.string());
  }
  Reader header(header_bytes.substr(kMagic.size()));
  const std::uint32_t version = header.u32();
  if (version != kSnapshotVersion) {
    throw CheckpointError(
        "unsupported checkpoint version " + std::to_string(version) +
        " in " + path.string() + " (this build writes version " +
        std::to_string(kSnapshotVersion) + ")");
  }
  Snapshot snapshot;
  snapshot.epoch_index = header.u64();
  snapshot.config_hash = header.u64();
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (file_size - kHeaderBytes != payload_size) {
    throw CheckpointError(
        "checkpoint payload size mismatch in " + path.string() + ": header " +
        std::to_string(payload_size) + ", file holds " +
        std::to_string(file_size - kHeaderBytes));
  }
  snapshot.payload.resize(payload_size);
  in.read(snapshot.payload.data(), static_cast<std::streamsize>(payload_size));
  if (!in || fnv1a(snapshot.payload) != checksum) {
    throw CheckpointError("checkpoint checksum mismatch: " + path.string());
  }
  snapshot.path = path;
  return snapshot;
}

std::optional<Snapshot> load_latest(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> all = list_snapshots(dir);
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    try {
      return load_snapshot(*it);
    } catch (const CheckpointError& e) {
      // Torn, corrupt or of another version: fall back to the previous
      // snapshot, and say why this one was passed over.
      GH_WARN << "checkpoint: skipping " << it->filename().string() << ": "
              << e.what();
    }
  }
  return std::nullopt;
}

}  // namespace greenhetero::checkpoint
