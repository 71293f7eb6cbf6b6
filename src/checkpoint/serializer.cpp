#include "checkpoint/serializer.h"

#include <bit>
#include <cstring>

namespace greenhetero::checkpoint {

namespace {

// The format is little-endian, and so is every supported host: a value's
// image is its memory, copied in or out with one memcpy.
static_assert(std::endian::native == std::endian::little,
              "checkpoint images are copied as little-endian memory");

template <typename T>
void append_le(std::string& buf, T v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_le(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

void Writer::u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
void Writer::u32(std::uint32_t v) { append_le(buf_, v); }
void Writer::u64(std::uint64_t v) { append_le(buf_, v); }
void Writer::i64(std::int64_t v) {
  append_le(buf_, static_cast<std::uint64_t>(v));
}

void Writer::f64(double v) { append_le(buf_, v); }

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::str(std::string_view v) {
  u64(v.size());
  buf_.append(v.data(), v.size());
}

void Writer::f64_array(std::span<const double> v) {
  u64(v.size());
  buf_.append(reinterpret_cast<const char*>(v.data()),
              v.size() * sizeof(double));
}

void Writer::u8_array(std::span<const std::uint8_t> v) {
  u64(v.size());
  if (!v.empty()) {
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size());
  }
}

const std::uint8_t* Reader::take(std::size_t n) {
  if (n > data_.size() - pos_) {
    throw CheckpointError("checkpoint payload truncated: need " +
                          std::to_string(n) + " bytes at offset " +
                          std::to_string(pos_) + ", have " +
                          std::to_string(data_.size() - pos_));
  }
  const auto* p = reinterpret_cast<const std::uint8_t*>(data_.data()) + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Reader::u8() { return *take(1); }
std::uint32_t Reader::u32() { return read_le<std::uint32_t>(take(4)); }
std::uint64_t Reader::u64() { return read_le<std::uint64_t>(take(8)); }
std::int64_t Reader::i64() {
  return static_cast<std::int64_t>(read_le<std::uint64_t>(take(8)));
}

double Reader::f64() { return read_le<double>(take(8)); }

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) {
    throw CheckpointError("checkpoint payload corrupt: boolean byte " +
                          std::to_string(v));
  }
  return v != 0;
}

std::string Reader::str() {
  const std::uint64_t n = u64();
  if (n > remaining()) {
    throw CheckpointError("checkpoint payload truncated: string of " +
                          std::to_string(n) + " bytes, have " +
                          std::to_string(remaining()));
  }
  const auto* p = take(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<std::size_t>(n));
}

std::size_t Reader::seq() {
  const std::uint64_t n = u64();
  // An element takes at least one byte, so a length beyond the remaining
  // bytes is corruption — reject before a resize() tries to allocate it.
  if (n > remaining()) {
    throw CheckpointError("checkpoint payload corrupt: sequence of " +
                          std::to_string(n) + " elements with " +
                          std::to_string(remaining()) + " bytes left");
  }
  return static_cast<std::size_t>(n);
}

template <typename T>
void Reader::array(std::vector<T>& v, std::string_view name) {
  const std::uint64_t n = u64();
  if (n > remaining() / sizeof(T)) {
    throw CheckpointError("checkpoint payload truncated: " +
                          std::string(name) + " array of " +
                          std::to_string(n) + " elements with " +
                          std::to_string(remaining()) + " bytes left");
  }
  v.resize(static_cast<std::size_t>(n));
  if (n > 0) {
    std::memcpy(v.data(), take(v.size() * sizeof(T)), v.size() * sizeof(T));
  }
}

void Reader::f64_array(std::vector<double>& v) { array(v, "f64"); }
void Reader::u8_array(std::vector<std::uint8_t>& v) { array(v, "u8"); }

std::int64_t Reader::in_range(std::int64_t v, std::int64_t lo,
                              std::int64_t hi, std::string_view what) {
  if (v < lo || v > hi) {
    throw CheckpointError(std::string(what) + " " + std::to_string(v) +
                          " is out of range [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "]");
  }
  return v;
}

void Reader::cursor(std::size_t& v, std::size_t bound, std::string_view what) {
  const std::uint64_t stored = u64();
  if (stored > bound) {
    throw CheckpointError(std::string(what) + " " + std::to_string(stored) +
                          " is out of range [0, " + std::to_string(bound) +
                          "]");
  }
  v = static_cast<std::size_t>(stored);
}

void Reader::fixed_count(std::size_t n, std::string_view what) {
  const std::uint64_t stored = u64();
  if (stored != n) {
    throw CheckpointError(std::string(what) + " " + std::to_string(stored) +
                          " does not match the configured " +
                          std::to_string(n));
  }
}

std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // the offset basis
  for (char c : data) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace greenhetero::checkpoint
