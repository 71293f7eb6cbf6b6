// Small CSV reader/writer used for trace import/export and bench output.
//
// Deliberately minimal: comma-separated, optional header row, no quoting of
// embedded commas (our columns are numeric or simple identifiers).  Parse
// errors are reported with row/column positions.
#pragma once

#include <cstddef>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

namespace greenhetero {

/// Parse failure with location information.
class CsvError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An in-memory CSV table: a header and rows of string cells.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header);

  /// Parse from text.  If `has_header` the first line names the columns.
  static CsvTable parse(const std::string& text, bool has_header = true);

  /// Load from a file (throws CsvError on I/O failure).
  static CsvTable load(const std::filesystem::path& path,
                       bool has_header = true);

  [[nodiscard]] const std::vector<std::string>& header() const {
    return header_;
  }
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const;

  /// Index of a named column; throws CsvError if absent.
  [[nodiscard]] std::size_t column_index(const std::string& name) const;

  /// Cell accessors.  `number` throws CsvError on non-numeric content.
  [[nodiscard]] const std::string& cell(std::size_t row,
                                        std::size_t col) const;
  [[nodiscard]] double number(std::size_t row, std::size_t col) const;
  [[nodiscard]] double number(std::size_t row, const std::string& col) const;

  void add_row(std::vector<std::string> cells);
  void add_numeric_row(const std::vector<double>& values);

  /// Serialise (header first when present).
  [[nodiscard]] std::string to_string() const;
  void save(const std::filesystem::path& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace greenhetero
