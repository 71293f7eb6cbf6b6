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
//
// Each checkpointed type writes that contract once, as one field list:
//
//   template <class Self, class Io>
//   static void fields(Self& self, Io& io) {
//     io.f64(self.stored_);       // a double or a strong unit
//     io.enum_i64(self.mode_, kModeCount, "thing: mode");  // checked
//     io.object(self.child_);     // a nested type's own list
//     if constexpr (Io::kLoading) { /* cross-field checks, rebuilds */ }
//   }
//
// checkpoint::save(w, x) runs it with a Writer over a const x, and
// checkpoint::load(r, x) with a Reader over x.  Writer and Reader offer the
// same verbs: a Writer verb appends its argument, the Reader verb of the
// same name overwrites it, so the two directions cannot drift apart.  A
// checksum-valid snapshot can still carry values no run produces; the
// checked verbs (enum_*, i64_in, cursor, fixed_count) refuse
// those on load with a CheckpointError naming the field, on the same line
// that reads it.  A field list defined in a .cpp is compiled for both
// directions there with GH_CHECKPOINT_FIELDS.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace greenhetero::checkpoint {

/// Thrown on any malformed, truncated, or version-mismatched snapshot.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends values to a growing byte buffer.
class Writer {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// Bit-exact: the IEEE-754 image is copied, never formatted.
  void f64(double v);
  /// A strong unit (Watts, WattHours, Minutes) as its double.
  template <typename Unit>
  void f64(detail::ScalarUnit<Unit> v) {
    f64(v.value());
  }
  void boolean(bool v);
  void str(std::string_view v);
  /// Sequence length prefix (u64); pair with one element write per item.
  void seq(std::size_t n) { u64(static_cast<std::uint64_t>(n)); }
  /// Bulk columns (the SoA epoch store): a length prefix, then the packed
  /// bit-exact element images in one reserve + append.
  void f64_array(std::span<const double> v);
  void u8_array(std::span<const std::uint8_t> v);

  /// A length prefix, then element(e) for every element.
  template <typename Seq, typename Fn>
  void seq(const Seq& v, Fn&& element) {
    seq(v.size());
    for (const auto& e : v) element(e);
  }
  /// A sequence of nested checkpointed types.
  template <typename Seq>
  void objects(const Seq& v) {
    seq(v, [this](const auto& e) { object(e); });
  }
  /// A map as a length prefix, then entry(key, value) per entry.
  template <typename Map, typename Fn>
  void map(const Map& m, Fn&& entry) {
    seq(m.size());
    for (const auto& [key, value] : m) entry(key, value);
  }
  /// An optional double or unit: a presence flag, then the value.
  template <typename T>
  void optional(const std::optional<T>& v) {
    boolean(v.has_value());
    if (v) f64(*v);
  }

  // Checked verbs: the bound only matters to the Reader.
  template <typename Enum>
  void enum_i64(Enum v, int /*count*/, std::string_view) {
    i64(static_cast<std::int64_t>(v));
  }
  template <typename Enum>
  void enum_u8(Enum v, int /*count*/, std::string_view) {
    u8(static_cast<std::uint8_t>(v));
  }
  void i64_in(std::int64_t v, std::int64_t /*lo*/, std::int64_t /*hi*/,
              std::string_view) {
    i64(v);
  }
  void cursor(std::size_t v, std::size_t /*bound*/, std::string_view) {
    u64(v);
  }
  void fixed_count(std::size_t n, std::string_view) { seq(n); }

  /// A nested checkpointed type.
  template <typename T>
  void object(const T& x) {
    T::fields(x, *this);
  }

  [[nodiscard]] const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
};

/// Consumes values from a byte buffer; throws CheckpointError on overrun so
/// a short snapshot can never be silently misread.
class Reader {
 public:
  static constexpr bool kLoading = true;

  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  std::size_t seq();

  // The Writer's verbs, overwriting their argument.
  void u8(std::uint8_t& v) { v = u8(); }
  template <std::integral T>
  void u64(T& v) {
    v = static_cast<T>(u64());
  }
  template <std::integral T>
  void i64(T& v) {
    v = static_cast<T>(i64());
  }
  void f64(double& v) { v = f64(); }
  template <typename Unit>
  void f64(detail::ScalarUnit<Unit>& v) {
    static_cast<Unit&>(v) = Unit{f64()};
  }
  void boolean(bool& v) { v = boolean(); }
  void str(std::string& v) { v = str(); }
  /// Bulk-column counterparts of Writer::f64_array / u8_array; the vector
  /// is resized to the stored length.
  void f64_array(std::vector<double>& v);
  void u8_array(std::vector<std::uint8_t>& v);

  template <typename Seq, typename Fn>
  void seq(Seq& v, Fn&& element) {
    fill(v, seq(), element);
  }
  template <typename Seq>
  void objects(Seq& v) {
    seq(v, [this](auto& e) { object(e); });
  }
  /// Duplicate keys keep the first entry.
  template <typename Map, typename Fn>
  void map(Map& m, Fn&& entry) {
    const std::size_t n = seq();
    m.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      entry(key, value);
      m.emplace(std::move(key), std::move(value));
    }
  }
  template <typename T>
  void optional(std::optional<T>& v) {
    if (boolean()) {
      v.emplace();
      f64(*v);
    } else {
      v.reset();
    }
  }

  /// An enum in [0, count): the enums index fixed tables.
  template <typename Enum>
  void enum_i64(Enum& v, int count, std::string_view what) {
    v = static_cast<Enum>(in_range(i64(), 0, count - 1, what));
  }
  template <typename Enum>
  void enum_u8(Enum& v, int count, std::string_view what) {
    v = static_cast<Enum>(in_range(u8(), 0, count - 1, what));
  }
  /// A signed integer in [lo, hi].
  template <std::integral T>
  void i64_in(T& v, std::int64_t lo, std::int64_t hi, std::string_view what) {
    v = static_cast<T>(in_range(i64(), lo, hi, what));
  }
  /// A position in [0, bound] of a configured sequence.
  void cursor(std::size_t& v, std::size_t bound, std::string_view what);
  /// A count that must equal the configured size `n`.
  void fixed_count(std::size_t n, std::string_view what);

  template <typename T>
  void object(T& x) {
    T::fields(x, *this);
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  /// A length prefix, then the packed element images.
  template <typename T>
  void array(std::vector<T>& v, std::string_view name);
  template <typename Seq, typename Fn>
  static void fill(Seq& v, std::size_t n, Fn&& element) {
    v.clear();
    v.resize(n);
    for (auto& e : v) element(e);
  }
  const std::uint8_t* take(std::size_t n);
  /// `v` when it lies in [lo, hi]; else throws "<what> <v> is out of range
  /// [lo, hi]".
  static std::int64_t in_range(std::int64_t v, std::int64_t lo,
                               std::int64_t hi, std::string_view what);

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Writes `x`'s field list.
template <typename T>
void save(Writer& w, const T& x) {
  w.object(x);
}

/// Overwrites `x` from its field list.
template <typename T>
void load(Reader& r, T& x) {
  r.object(x);
}

/// FNV-1a (64-bit) over a byte range: the CLI's scenario fingerprint
/// (RunConfig::config_hash).  Snapshot payloads are checksummed with XXH64
/// (checkpoint.h), which is about ten times faster on large inputs.
[[nodiscard]] std::uint64_t fnv1a(std::string_view data);

}  // namespace greenhetero::checkpoint

/// Compiles T::fields for both directions in the .cpp that defines it.
#define GH_CHECKPOINT_FIELDS(T)                                          \
  template void T::fields(const T&, ::greenhetero::checkpoint::Writer&); \
  template void T::fields(T&, ::greenhetero::checkpoint::Reader&)
