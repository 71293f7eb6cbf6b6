#include "util/options.h"

#include <algorithm>
#include <cmath>

namespace greenhetero::util {

namespace {

std::string flag_name(const OptionSpec& row) {
  return row.positional ? std::string(row.name)
                        : "--" + std::string(row.name);
}

std::string format_number(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

/// The accepted range in words, e.g. ">= 1", "in [0, 1]", "> 0".
std::string range_text(const OptionSpec& row) {
  if (row.kind == OptionKind::kInteger) {
    const std::string lo = std::to_string(row.int_min);
    if (row.int_max == kIntMax ||
        row.int_max == std::numeric_limits<std::uint64_t>::max()) {
      return ">= " + lo;
    }
    return "in [" + lo + ", " + std::to_string(row.int_max) + "]";
  }
  const std::string lo = format_number(row.min);
  if (row.max == kUnbounded) return (row.min_open ? "> " : ">= ") + lo;
  return std::string("in ") + (row.min_open ? "(" : "[") + lo + ", " +
         format_number(row.max) + "]";
}

std::string join_choices(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// `text` in single quotes, for error messages.  Built with appends: GCC 12
/// flags `"literal" + std::string` with a false -Wrestrict warning.
std::string quote(std::string_view text) {
  std::string out = "'";
  out += text;
  out += '\'';
  return out;
}

template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return error == std::errc{} && end == text.data() + text.size();
}

std::string canonical_integer(const OptionSpec& row, std::string_view text) {
  const std::string flag = flag_name(row);
  const std::string quoted = quote(text);
  // Negative values parse signed, the rest unsigned, so the full uint64
  // range (seeds) and negative ranges both stay exact integers.
  bool in_range = false;
  std::string canonical;
  if (!text.empty() && text.front() == '-') {
    std::int64_t value = 0;
    if (!parse_whole(text, value)) {
      throw OptionError(flag + ": " + quoted + " is not a whole number");
    }
    in_range = value >= row.int_min;
    canonical = std::to_string(value);
  } else {
    std::uint64_t value = 0;
    if (!parse_whole(text, value)) {
      throw OptionError(flag + ": " + quoted + " is not a whole number");
    }
    in_range = (row.int_min <= 0 ||
                value >= static_cast<std::uint64_t>(row.int_min)) &&
               value <= row.int_max;
    canonical = std::to_string(value);
  }
  if (!in_range) {
    throw OptionError(flag + ": " + quoted + " is out of range (must be " +
                      range_text(row) + ")");
  }
  return canonical;
}

std::string canonical_number(const OptionSpec& row, std::string_view text) {
  const std::string flag = flag_name(row);
  const std::string quoted = quote(text);
  double value = 0.0;
  if (!parse_whole(text, value) || !std::isfinite(value)) {
    throw OptionError(flag + ": " + quoted + " is not a finite number");
  }
  const bool above_min = row.min_open ? value > row.min : value >= row.min;
  if (!above_min || value > row.max) {
    throw OptionError(flag + ": " + quoted + " is out of range (must be " +
                      range_text(row) + ")");
  }
  return format_number(value);
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

/// The metavariable shown after a flag in the usage text.
std::string_view metavar(const OptionSpec& row) {
  switch (row.kind) {
    case OptionKind::kSwitch:
      return "[on|off]";
    case OptionKind::kInteger:
      return "N";
    case OptionKind::kNumber:
      return "X";
    case OptionKind::kText:
      return "TEXT";
    case OptionKind::kChoice:
      return "NAME";
  }
  return "";
}

}  // namespace

std::string canonical_value(const OptionSpec& row, std::string_view text) {
  switch (row.kind) {
    case OptionKind::kSwitch:
      if (text == "on" || text == "off") return std::string(text);
      throw OptionError(flag_name(row) + ": '" + std::string(text) +
                        "' must be on or off");
    case OptionKind::kInteger:
      return canonical_integer(row, text);
    case OptionKind::kNumber:
      return canonical_number(row, text);
    case OptionKind::kText:
      return std::string(text);
    case OptionKind::kChoice: {
      const std::vector<std::string> names = row.choices();
      if (std::find(names.begin(), names.end(), text) != names.end()) {
        return std::string(text);
      }
      throw OptionError(flag_name(row) + ": '" + std::string(text) +
                        "' is not one of " + join_choices(names));
    }
  }
  throw std::logic_error("unknown option kind");
}

Options::Options(const CommandSpec& command)
    : command_(&command), slots_(command.rows.size()) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const OptionSpec& row = command.rows[i];
    if (row.positional || row.fallback == kDerived) continue;
    slots_[i].value = canonical_value(row, row.fallback);
    slots_[i].settled = true;
  }
}

std::size_t Options::find(std::string_view name) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (command_->rows[i].name == name) return i;
  }
  throw std::logic_error("greenhetero " + std::string(command_->name) +
                         " declares no option --" + std::string(name));
}

std::size_t Options::index(std::string_view name, OptionKind kind) const {
  const std::size_t i = find(name);
  const OptionKind declared = command_->rows[i].kind;
  // text() also reads choice rows.
  if (declared != kind &&
      !(kind == OptionKind::kText && declared == OptionKind::kChoice)) {
    throw std::logic_error("option --" + std::string(name) +
                           " read as the wrong kind");
  }
  return i;
}

const std::string& Options::settled(std::size_t i) const {
  if (!slots_[i].settled) {
    throw std::logic_error("option --" +
                           std::string(command_->rows[i].name) +
                           " read before its derived default was settled");
  }
  return slots_[i].value;
}

void Options::set_given(std::size_t i, std::string_view text) {
  const OptionSpec& row = command_->rows[i];
  if (slots_[i].given) {
    throw OptionError(flag_name(row) + " given twice");
  }
  slots_[i] = {true, true, canonical_value(row, text)};
}

bool Options::given(std::string_view name) const {
  return slots_[find(name)].given;
}

bool Options::flag(std::string_view name) const {
  return settled(index(name, OptionKind::kSwitch)) == "on";
}

double Options::number(std::string_view name) const {
  const std::string& value = settled(index(name, OptionKind::kNumber));
  double out = 0.0;
  parse_whole(value, out);
  return out;
}

const std::string& Options::text(std::string_view name) const {
  return settled(index(name, OptionKind::kText));
}

double Options::derive(std::string_view name, double value) {
  const std::size_t i = index(name, OptionKind::kNumber);
  if (command_->rows[i].fallback != kDerived) {
    throw std::logic_error("option --" + std::string(name) +
                           " has a fixed default");
  }
  if (!slots_[i].given) slots_[i] = {false, true, format_number(value)};
  return number(name);
}

std::string Options::scenario_key() const {
  std::string key;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const OptionSpec& row = command_->rows[i];
    if (!row.shapes_scenario) continue;
    key += row.name;
    key += '=';
    key += settled(i);
    key += '\n';
  }
  return key;
}

std::string_view closest_flag(const CommandSpec& command,
                              std::string_view name) {
  std::string_view best;
  std::size_t best_distance = 3;  // hint only within edit distance 2
  for (const OptionSpec& row : command.rows) {
    if (row.positional) continue;
    const std::size_t distance = edit_distance(name, row.name);
    if (distance < best_distance) {
      best = row.name;
      best_distance = distance;
    }
  }
  return best;
}

Options parse_options(const CommandSpec& command,
                      std::span<const char* const> args) {
  Options options{command};
  const std::span<const OptionSpec> rows = command.rows;
  std::size_t next_positional = 0;
  for (std::size_t a = 0; a < args.size(); ++a) {
    const std::string_view arg = args[a];
    if (!arg.starts_with("--")) {
      while (next_positional < rows.size() &&
             !rows[next_positional].positional) {
        ++next_positional;
      }
      if (next_positional == rows.size()) {
        throw OptionError("unexpected argument '" + std::string(arg) + "'");
      }
      options.set_given(next_positional++, arg);
      continue;
    }
    const std::string_view name = arg.substr(2);
    const auto row = std::find_if(rows.begin(), rows.end(),
                                  [&](const OptionSpec& r) {
                                    return !r.positional && r.name == name;
                                  });
    if (row == rows.end()) {
      std::string message = "unknown flag " + std::string(arg);
      if (const std::string_view hint = closest_flag(command, name);
          !hint.empty()) {
        message += " (did you mean --" + std::string(hint) + "?)";
      }
      throw OptionError(message);
    }
    const auto i = static_cast<std::size_t>(row - rows.begin());
    const bool has_value = a + 1 < args.size() &&
                           std::string_view(args[a + 1]).substr(0, 2) != "--";
    if (row->kind == OptionKind::kSwitch) {
      options.set_given(i, has_value ? std::string_view(args[++a]) : "on");
    } else if (has_value) {
      options.set_given(i, args[++a]);
    } else {
      throw OptionError(std::string(arg) + " needs a value");
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].positional && !options.slots_[i].given) {
      throw OptionError("missing " + std::string(rows[i].name));
    }
  }
  return options;
}

std::string usage_text(const CommandSpec& command) {
  // Appends only; see quote().
  std::string out = "usage: greenhetero ";
  out += command.name;
  if (!command.mode.empty()) {
    out += ' ';
    out += command.mode;
  }
  for (const OptionSpec& row : command.rows) {
    if (!row.positional) continue;
    out += ' ';
    out += row.name;
  }
  out += " [--flag value ...]\n  ";
  out += command.summary;
  out += '\n';
  for (const OptionSpec& row : command.rows) {
    std::string head = "  ";
    head += flag_name(row);
    if (!row.positional) {
      head += ' ';
      head += metavar(row);
    }
    std::string line(row.help);
    if (row.kind == OptionKind::kInteger || row.kind == OptionKind::kNumber) {
      line += "; ";
      line += range_text(row);
    } else if (row.kind == OptionKind::kChoice) {
      line += ": ";
      line += join_choices(row.choices());
    }
    if (!row.fallback.empty() && row.fallback != kDerived) {
      line += " (default ";
      line += row.fallback;
      line += ')';
    }
    head.resize(std::max<std::size_t>(head.size(), 28), ' ');
    out += head;
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace greenhetero::util
