// Minimal JSON reader for the trace analyzer.
//
// The analyzer consumes JSONL traces the telemetry layer itself wrote, so
// this parser targets exactly that dialect: objects, arrays, strings with
// standard escapes, numbers (plus the encoder's non-finite spellings `NaN`,
// `+Inf` and `-Inf`), booleans, null.  Two deliberate choices:
//
//  - objects are kept as an ordered vector of (key, value) pairs rather
//    than a map, because trace events may legitimately repeat a key (the
//    "fault_inject" event carries two "phase" fields) and find() must
//    return the first match like every JSON reader the traces target;
//  - parse errors throw JsonError with a byte offset, never assert — the
//    analyzer turns them into actionable CLI messages.
//
// No serialisation here: writing stays with the telemetry exporters, which
// own the deterministic number formatting the goldens depend on.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace greenhetero::json {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value;

using Member = std::pair<std::string, Value>;

/// One parsed JSON value.  Accessors throw JsonError on kind mismatch so
/// the analyzer's schema checks read as one-liners.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& as_array() const;
  [[nodiscard]] const std::vector<Member>& as_object() const;

  /// First member with `key`, or nullptr (objects only; throws otherwise).
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// find() + as_number(), with `fallback` when the key is absent.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  /// find() + as_string(), with `fallback` when the key is absent.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;

  static Value make_null() { return Value{}; }
  static Value make_bool(bool v);
  static Value make_number(double v);
  static Value make_string(std::string v);
  static Value make_array(std::vector<Value> v);
  static Value make_object(std::vector<Member> v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace greenhetero::json
