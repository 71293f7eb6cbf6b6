#include "util/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/atomic_file.h"

namespace greenhetero {

namespace {

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream stream(line);
  while (std::getline(stream, cell, ',')) {
    // Trim surrounding whitespace.
    const auto first = cell.find_first_not_of(" \t\r");
    const auto last = cell.find_last_not_of(" \t\r");
    cells.push_back(first == std::string::npos
                        ? std::string{}
                        : cell.substr(first, last - first + 1));
  }
  if (!line.empty() && line.back() == ',') {
    cells.emplace_back();
  }
  return cells;
}

}  // namespace

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

CsvTable CsvTable::parse(const std::string& text, bool has_header) {
  CsvTable table;
  std::istringstream stream(text);
  std::string line;
  bool first = true;
  std::size_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') {
      continue;  // allow comments / blank separators
    }
    auto cells = split_line(line);
    if (first && has_header) {
      table.header_ = std::move(cells);
      first = false;
      continue;
    }
    first = false;
    if (!table.rows_.empty() && cells.size() != table.rows_.front().size()) {
      throw CsvError("csv: ragged row at line " + std::to_string(line_number));
    }
    table.rows_.push_back(std::move(cells));
  }
  return table;
}

CsvTable CsvTable::load(const std::filesystem::path& path, bool has_header) {
  std::ifstream in(path);
  if (!in) {
    throw CsvError("csv: cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), has_header);
}

const std::vector<std::string>& CsvTable::row(std::size_t i) const {
  if (i >= rows_.size()) {
    throw CsvError("csv: row index " + std::to_string(i) + " out of range");
  }
  return rows_[i];
}

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw CsvError("csv: no column named '" + name + "'");
}

const std::string& CsvTable::cell(std::size_t row, std::size_t col) const {
  const auto& r = this->row(row);
  if (col >= r.size()) {
    throw CsvError("csv: column index " + std::to_string(col) +
                   " out of range");
  }
  return r[col];
}

double CsvTable::number(std::size_t row, std::size_t col) const {
  const std::string& text = cell(row, col);
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw CsvError("csv: cell '" + text + "' is not numeric");
  }
  // from_chars happily parses "nan" and "inf"; no consumer of these tables
  // can do anything sensible with either.
  if (!std::isfinite(value)) {
    throw CsvError("csv: cell '" + text + "' is not a finite number");
  }
  return value;
}

double CsvTable::number(std::size_t row, const std::string& col) const {
  return number(row, column_index(col));
}

void CsvTable::add_row(std::vector<std::string> cells) {
  if (!header_.empty() && cells.size() != header_.size()) {
    throw CsvError("csv: row width does not match header");
  }
  rows_.push_back(std::move(cells));
}

void CsvTable::add_numeric_row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) {
    std::ostringstream out;
    out << v;
    cells.push_back(out.str());
  }
  add_row(std::move(cells));
}

std::string CsvTable::to_string() const {
  std::ostringstream out;
  auto write_row = [&out](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out << ',';
      out << cells[i];
    }
    out << '\n';
  };
  if (!header_.empty()) write_row(header_);
  for (const auto& r : rows_) write_row(r);
  return out.str();
}

void CsvTable::save(const std::filesystem::path& path) const {
  // Temp-file + rename: a crash mid-save must never replace a good file
  // (the perf-power database persists across runs through this path).
  try {
    util::write_file_atomic(path, to_string());
  } catch (const util::AtomicWriteError& e) {
    throw CsvError("csv: cannot write " + path.string() + ": " + e.what());
  }
}

}  // namespace greenhetero
