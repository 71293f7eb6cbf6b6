// Declarative command-line options: one table row per flag.
//
// A subcommand declares its flags once, as a constexpr array of OptionSpec
// rows (name, kind, range or choice list, default, scenario bit, help).
// Parsing, range checks, the usage text and the scenario key all read that
// one table, so a flag cannot be parsed in one place and documented,
// defaulted or fingerprinted differently in another.
//
//   inline constexpr util::OptionSpec kRows[] = {
//       util::integer("days", "1", 1, 36500, "simulated days").shapes(),
//       util::text("trace-out", "trace file (JSONL)"),
//   };
//   util::Options options = util::parse_options(spec, args);
//   const int days = options.integer<int>("days");
//
// Bad input (an unknown flag, a value of the wrong type, out of range or
// outside the choices) throws OptionError naming the flag; asking an Options
// for a name its table does not declare throws std::logic_error.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace greenhetero::util {

enum class OptionKind {
  kSwitch,   ///< bare flag, "on" or "off"
  kInteger,  ///< whole number within [int_min, int_max]
  kNumber,   ///< finite double within [min, max] (min exclusive if min_open)
  kText,     ///< any string; the empty default means "not set"
  kChoice,   ///< one of choices()
};

/// The names a choice row accepts.  A function, so the list can come from
/// the library's own catalogue instead of being typed into the table.
using ChoiceList = std::vector<std::string> (*)();

/// Default of a row whose value depends on other flags; the command settles
/// it with Options::derive() before reading it.
inline constexpr std::string_view kDerived = "(derived)";

struct OptionSpec {
  std::string_view name{};  ///< without the leading "--"
  OptionKind kind = OptionKind::kText;
  /// The default as command-line text, or kDerived.
  std::string_view fallback{};
  std::int64_t int_min = 0;
  std::uint64_t int_max = 0;
  double min = 0.0;
  double max = 0.0;
  bool min_open = false;
  ChoiceList choices = nullptr;
  /// Part of the scenario fingerprint (Options::scenario_key).
  bool shapes_scenario = false;
  /// A required positional argument instead of a --flag.
  bool positional = false;
  std::string_view help{};

  [[nodiscard]] constexpr OptionSpec shapes() const {
    OptionSpec row = *this;
    row.shapes_scenario = true;
    return row;
  }
};

[[nodiscard]] constexpr OptionSpec switch_option(std::string_view name,
                                                 std::string_view fallback,
                                                 std::string_view help) {
  return {.name = name, .kind = OptionKind::kSwitch, .fallback = fallback,
          .help = help};
}

[[nodiscard]] constexpr OptionSpec integer(std::string_view name,
                                           std::string_view fallback,
                                           std::int64_t min, std::uint64_t max,
                                           std::string_view help) {
  return {.name = name, .kind = OptionKind::kInteger, .fallback = fallback,
          .int_min = min, .int_max = max, .help = help};
}

/// [min, max]; see above() for an exclusive lower bound.
[[nodiscard]] constexpr OptionSpec number(std::string_view name,
                                          std::string_view fallback,
                                          double min, double max,
                                          std::string_view help) {
  return {.name = name, .kind = OptionKind::kNumber, .fallback = fallback,
          .min = min, .max = max, .help = help};
}

/// (min, max]
[[nodiscard]] constexpr OptionSpec above(std::string_view name,
                                         std::string_view fallback,
                                         double min, double max,
                                         std::string_view help) {
  OptionSpec row = number(name, fallback, min, max, help);
  row.min_open = true;
  return row;
}

[[nodiscard]] constexpr OptionSpec text(std::string_view name,
                                        std::string_view help,
                                        std::string_view fallback = "") {
  return {.name = name, .kind = OptionKind::kText, .fallback = fallback,
          .help = help};
}

[[nodiscard]] constexpr OptionSpec choice(std::string_view name,
                                          std::string_view fallback,
                                          ChoiceList choices,
                                          std::string_view help) {
  return {.name = name, .kind = OptionKind::kChoice, .fallback = fallback,
          .choices = choices, .help = help};
}

[[nodiscard]] constexpr OptionSpec positional(std::string_view name,
                                              std::string_view help) {
  return {.name = name, .kind = OptionKind::kText, .positional = true,
          .help = help};
}

/// Upper bounds of rows that need none: kIntMax keeps an integer row
/// readable as `int`.
inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();
inline constexpr std::uint64_t kIntMax =
    std::numeric_limits<std::int32_t>::max();

/// One subcommand's table.  `mode` is a leading token that selects this
/// table instead of the plain one (`fuzz --crash`); empty for most.
struct CommandSpec {
  std::string_view name;
  std::string_view mode;
  std::span<const OptionSpec> rows;
  std::string_view summary;
};

/// Bad command-line input; what() names the offending flag.
class OptionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Concatenates row groups at compile time, so tables can share rows.
template <std::size_t... N>
[[nodiscard]] constexpr std::array<OptionSpec, (N + ...)> join(
    const OptionSpec (&... groups)[N]) {
  std::array<OptionSpec, (N + ...)> rows{};
  auto out = rows.begin();
  ((out = std::copy(std::begin(groups), std::end(groups), out)), ...);
  return rows;
}

/// Parsed values of one subcommand, every row filled with its canonical
/// text (given, default, or derived once derive() ran).
class Options {
 public:
  explicit Options(const CommandSpec& command);

  /// Whether the flag appeared on the command line.
  [[nodiscard]] bool given(std::string_view name) const;
  [[nodiscard]] bool flag(std::string_view name) const;
  /// Throws std::logic_error when the row's range does not fit in T.
  template <typename T>
  [[nodiscard]] T integer(std::string_view name) const;
  [[nodiscard]] double number(std::string_view name) const;
  /// Text, choice and positional rows.
  [[nodiscard]] const std::string& text(std::string_view name) const;

  /// Settles a kDerived number row from the flags it depends on; a value
  /// given on the command line wins.  Returns the value in effect.
  double derive(std::string_view name, double value);

  /// "name=canonical value\n" for every shapes_scenario row, in table
  /// order: the scenario fingerprint's input.  Every derived shaping row
  /// must be settled first (std::logic_error otherwise).
  [[nodiscard]] std::string scenario_key() const;

  /// Builds the Options; throws OptionError on bad input.
  friend Options parse_options(const CommandSpec& command,
                               std::span<const char* const> args);

 private:
  struct Slot {
    bool given = false;
    bool settled = false;
    std::string value;
  };
  /// The row declaring `name`; std::logic_error when there is none.
  [[nodiscard]] std::size_t find(std::string_view name) const;
  /// find(), also checking the row is read as its own kind.
  [[nodiscard]] std::size_t index(std::string_view name,
                                  OptionKind kind) const;
  [[nodiscard]] const std::string& settled(std::size_t i) const;
  /// Stores the canonical form of `text` as given on the command line.
  void set_given(std::size_t i, std::string_view text);

  const CommandSpec* command_;
  std::vector<Slot> slots_;
};

/// Parses `args` (everything after the subcommand and its mode token)
/// against the table.  Throws OptionError on bad input.
[[nodiscard]] Options parse_options(const CommandSpec& command,
                                    std::span<const char* const> args);

/// The canonical form of `text` as a value of `row`; throws OptionError.
[[nodiscard]] std::string canonical_value(const OptionSpec& row,
                                          std::string_view text);

/// The closest declared flag within edit distance 2, or empty.
[[nodiscard]] std::string_view closest_flag(const CommandSpec& command,
                                            std::string_view name);

/// The subcommand's usage text, generated from its table.
[[nodiscard]] std::string usage_text(const CommandSpec& command);

template <typename T>
T Options::integer(std::string_view name) const {
  static_assert(std::is_integral_v<T>);
  const std::size_t i = index(name, OptionKind::kInteger);
  const OptionSpec& row = command_->rows[i];
  using Limits = std::numeric_limits<T>;
  if (row.int_min < static_cast<std::int64_t>(Limits::min()) ||
      row.int_max > static_cast<std::uint64_t>(Limits::max())) {
    throw std::logic_error("option --" + std::string(name) +
                           ": declared range does not fit the requested type");
  }
  const std::string& value = settled(i);
  T out{};
  std::from_chars(value.data(), value.data() + value.size(), out);
  return out;
}

}  // namespace greenhetero::util
