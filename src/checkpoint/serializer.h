// Binary state serialization for checkpoints.
//
// A deliberately tiny, dependency-free format: little-endian fixed-size
// integers, bit-exact doubles (the IEEE-754 image, copied with memcpy —
// round-tripping must not perturb a single mantissa bit, or the resumed
// simulation diverges), and length-prefixed strings/sequences.
// There is no schema or field tagging; the layout IS the contract, guarded
// by the snapshot version number in the checkpoint container
// (checkpoint.h).  Any layout change bumps kSnapshotVersion and old
// snapshots are refused rather than misread.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace greenhetero::checkpoint {

/// Thrown on any malformed, truncated, or version-mismatched snapshot.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends primitive values to a growing byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// Bit-exact: the IEEE-754 image is copied, never formatted.
  void f64(double v);
  void boolean(bool v);
  void str(std::string_view v);
  /// Sequence length prefix (u64); pair with one element write per item.
  void seq(std::size_t n) { u64(static_cast<std::uint64_t>(n)); }
  /// Bulk columns (the SoA epoch store): a length prefix, then the packed
  /// bit-exact element images in one reserve + append.
  void f64_array(std::span<const double> v);
  void u8_array(std::span<const std::uint8_t> v);

  [[nodiscard]] const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
};

/// Consumes primitive values from a byte buffer; throws CheckpointError on
/// overrun so a short snapshot can never be silently misread.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  std::size_t seq();
  /// Bulk-column counterparts of Writer::f64_array / u8_array; the vector
  /// is resized to the stored length.
  void f64_array(std::vector<double>& v);
  void u8_array(std::vector<std::uint8_t>& v);

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  const std::uint8_t* take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

// Sequence helpers for the common element types.

inline void save(Writer& w, const std::vector<double>& v) {
  w.f64_array(v);  // the same bytes: a u64 length, then the packed images
}

inline void load(Reader& r, std::vector<double>& v) {
  v.resize(r.seq());
  for (double& x : v) x = r.f64();
}

inline void save(Writer& w, const std::deque<double>& v) {
  w.seq(v.size());
  for (double x : v) w.f64(x);
}

inline void load(Reader& r, std::deque<double>& v) {
  v.resize(r.seq());
  for (double& x : v) x = r.f64();
}

inline void save(Writer& w, const std::vector<int>& v) {
  w.seq(v.size());
  for (int x : v) w.i64(x);
}

inline void load(Reader& r, std::vector<int>& v) {
  v.resize(r.seq());
  for (int& x : v) x = static_cast<int>(r.i64());
}

inline void save(Writer& w, const std::vector<std::uint64_t>& v) {
  w.seq(v.size());
  for (std::uint64_t x : v) w.u64(x);
}

inline void load(Reader& r, std::vector<std::uint64_t>& v) {
  v.resize(r.seq());
  for (std::uint64_t& x : v) x = r.u64();
}

inline void save(Writer& w, const std::optional<double>& v) {
  w.boolean(v.has_value());
  if (v) w.f64(*v);
}

inline void load(Reader& r, std::optional<double>& v) {
  if (r.boolean()) {
    v = r.f64();
  } else {
    v.reset();
  }
}

/// An enum stored as i64, checked against [0, count): a snapshot can carry an
/// out-of-range value under a valid checksum, and the enums index fixed
/// tables.  `what` names the field in the error.
template <typename Enum>
[[nodiscard]] Enum load_enum(Reader& r, int count, std::string_view what) {
  const std::int64_t v = r.i64();
  if (v < 0 || v >= count) {
    throw CheckpointError(std::string(what) + " " + std::to_string(v) +
                          " is out of range [0, " + std::to_string(count) +
                          ")");
  }
  return static_cast<Enum>(v);
}

/// FNV-1a's offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over a byte range, continuing from `hash` (the hash of the bytes
/// before it), so folding it over consecutive chunks equals one pass over
/// their concatenation; the checkpoint container's payload checksum.
[[nodiscard]] std::uint64_t fnv1a(std::string_view data,
                                  std::uint64_t hash = kFnv1aBasis);

}  // namespace greenhetero::checkpoint
