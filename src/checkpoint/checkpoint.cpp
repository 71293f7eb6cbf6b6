#include "checkpoint/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <system_error>

#include "util/atomic_file.h"
#include "util/logging.h"

namespace greenhetero::checkpoint {

namespace {

// XXH64 reads its words as memory, so the value is the little-endian one
// only on a little-endian host (the serializer makes the same demand).
static_assert(std::endian::native == std::endian::little,
              "XXH64 words are read as little-endian memory");

constexpr std::string_view kMagic = "GHCKPT01";
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8 + 8;

/// ckpt-<epoch>.bin with a zero-padded epoch so lexical order == numeric.
std::string snapshot_name(std::uint64_t epoch_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%010llu.bin",
                static_cast<unsigned long long>(epoch_index));
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
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

std::uint64_t read64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t read32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * Xxh64::kPrime2;
  return std::rotl(acc, 31) * Xxh64::kPrime1;
}

std::uint64_t xxh_merge(std::uint64_t hash, std::uint64_t lane) {
  hash ^= xxh_round(0, lane);
  return hash * Xxh64::kPrime1 + Xxh64::kPrime4;
}

/// Folds every whole 32-byte stripe of [p, p + n) into `lanes`; returns the
/// bytes consumed.
std::size_t xxh_stripes(std::uint64_t (&lanes)[4], const unsigned char* p,
                        std::size_t n) {
  std::uint64_t v0 = lanes[0], v1 = lanes[1], v2 = lanes[2], v3 = lanes[3];
  const std::size_t whole = n - n % 32;
  for (std::size_t i = 0; i < whole; i += 32) {
    v0 = xxh_round(v0, read64(p + i));
    v1 = xxh_round(v1, read64(p + i + 8));
    v2 = xxh_round(v2, read64(p + i + 16));
    v3 = xxh_round(v3, read64(p + i + 24));
  }
  lanes[0] = v0;
  lanes[1] = v1;
  lanes[2] = v2;
  lanes[3] = v3;
  return whole;
}

}  // namespace

void Xxh64::update(std::string_view data) {
  if (data.empty()) return;  // data() may be null
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  total_ += n;
  if (tail_size_ > 0) {
    const std::size_t take = std::min(n, sizeof(tail_) - tail_size_);
    std::memcpy(tail_ + tail_size_, p, take);
    tail_size_ += take;
    p += take;
    n -= take;
    if (tail_size_ < sizeof(tail_)) return;
    xxh_stripes(lanes_, tail_, sizeof(tail_));
    tail_size_ = 0;
  }
  const std::size_t done = xxh_stripes(lanes_, p, n);
  tail_size_ = n - done;
  if (tail_size_ > 0) std::memcpy(tail_, p + done, tail_size_);
}

std::uint64_t Xxh64::digest() const {
  std::uint64_t hash = kPrime5;  // seed 0, under 32 bytes
  if (total_ >= 32) {
    hash = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
           std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (const std::uint64_t lane : lanes_) hash = xxh_merge(hash, lane);
  }
  hash += total_;
  const unsigned char* p = tail_;
  const unsigned char* const end = tail_ + tail_size_;
  for (; p + 8 <= end; p += 8) {
    hash ^= xxh_round(0, read64(p));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (p + 4 <= end) {
    hash ^= static_cast<std::uint64_t>(read32(p)) * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash ^= *p * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

std::uint64_t xxh64(std::string_view data) {
  Xxh64 hash;
  hash.update(data);
  return hash.digest();
}

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
  Xxh64 checksum;
  for (std::string_view chunk : payload) {
    size += chunk.size();
    checksum.update(chunk);
  }
  Writer header;
  for (char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kSnapshotVersion);
  header.u64(epoch_index);
  header.u64(config_hash);
  header.u64(size);
  header.u64(checksum.digest());

  std::vector<std::string_view> body;
  body.reserve(payload.size() + 1);
  body.push_back(header.buffer());
  body.insert(body.end(), payload.begin(), payload.end());
  try {
    util::write_file_atomic(dir / snapshot_name(epoch_index), body);
  } catch (const util::AtomicWriteError& e) {
    throw CheckpointError(e.what());
  }

  // The directory holds this run's history: a later epoch can only be an
  // earlier run's, which a resume must never land on.  Then keep the newest
  // `keep_last`.  Both prunes are best-effort.
  std::vector<std::filesystem::path> all = list_snapshots(dir);
  while (!all.empty() && parse_epoch(all.back()) > epoch_index) {
    std::filesystem::remove(all.back(), ec);
    all.pop_back();
  }
  if (keep_last > 0 && all.size() > static_cast<std::size_t>(keep_last)) {
    for (std::size_t i = 0; i < all.size() - keep_last; ++i) {
      std::filesystem::remove(all[i], ec);
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
  if (!in) {
    throw CheckpointError("cannot read checkpoint payload: " + path.string());
  }
  if (const std::uint64_t actual = xxh64(snapshot.payload);
      actual != checksum) {
    throw CheckpointError("checkpoint checksum mismatch: " + path.string() +
                          " (header holds XXH64 " + hex64(checksum) +
                          ", payload hashes to " + hex64(actual) + ")");
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
