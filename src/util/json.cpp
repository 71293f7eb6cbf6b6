#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <limits>

namespace greenhetero::json {

namespace {

[[noreturn]] void fail(std::string_view what, std::size_t offset) {
  throw JsonError("json: " + std::string(what) + " at offset " +
                  std::to_string(offset));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters", pos_);
    return v;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal", pos_);
        return Value::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal", pos_);
        return Value::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal", pos_);
        return Value::make_null();
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    std::vector<Member> members;
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    while (true) {
      if (peek() != '"') fail("expected object key", pos_);
      std::string key = parse_string();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'", pos_ - 1);
    }
    return Value::make_object(std::move(members));
  }

  Value parse_array() {
    expect('[');
    std::vector<Value> items;
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'", pos_ - 1);
    }
    return Value::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape", pos_ - 1);
      }
    }
    return out;
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape", pos_);
    std::uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code += static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code += static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code += static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape", pos_ - 1);
      }
    }
    // UTF-8 encode the BMP code point (the traces only ever escape control
    // characters; surrogate pairs are out of scope and pass through as-is).
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Value parse_number() {
    skip_whitespace();
    // The telemetry encoder (telemetry::append_number) spells non-finite
    // doubles the Prometheus way; read them back as the values they name.
    if (consume_literal("NaN")) {
      return Value::make_number(std::numeric_limits<double>::quiet_NaN());
    }
    if (consume_literal("+Inf")) {
      return Value::make_number(std::numeric_limits<double>::infinity());
    }
    if (consume_literal("-Inf")) {
      return Value::make_number(-std::numeric_limits<double>::infinity());
    }
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) {
      fail("invalid number", start);
    }
    return Value::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void wrong_kind(std::string_view wanted) {
  throw JsonError("json: value is not " + std::string(wanted));
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) wrong_kind("a boolean");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) wrong_kind("a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) wrong_kind("a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (kind_ != Kind::kArray) wrong_kind("an array");
  return array_;
}

const std::vector<Member>& Value::as_object() const {
  if (kind_ != Kind::kObject) wrong_kind("an object");
  return object_;
}

const Value* Value::find(std::string_view key) const {
  for (const Member& m : as_object()) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v != nullptr ? v->as_number() : fallback;
}

std::string Value::string_or(std::string_view key,
                             std::string_view fallback) const {
  const Value* v = find(key);
  return v != nullptr ? v->as_string() : std::string(fallback);
}

Value Value::make_bool(bool v) {
  Value out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

Value Value::make_number(double v) {
  Value out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

Value Value::make_string(std::string v) {
  Value out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

Value Value::make_array(std::vector<Value> v) {
  Value out;
  out.kind_ = Kind::kArray;
  out.array_ = std::move(v);
  return out;
}

Value Value::make_object(std::vector<Member> v) {
  Value out;
  out.kind_ = Kind::kObject;
  out.object_ = std::move(v);
  return out;
}

Value parse(std::string_view text) { return Parser{text}.parse_document(); }

}  // namespace greenhetero::json
