// Figures.MatchCommitted: every figure of the reproduction matrix
// (bench/bench_common.h) must reproduce its committed bench/figures/
// <name>.json exactly.  A failure prints one line per differing cell
// (figure / table:row / column / committed / now), so a change that moves a
// paper figure shows which numbers moved; regenerate the set with
// tools/regen_goldens.sh and explain the diff in the same commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/json.h"

namespace greenhetero {
namespace {

std::string text_of(const json::Value& v) {
  if (v.is_string()) return v.as_string();
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v.as_number()).ptr};
}

bool same(const json::Value& a, const json::Value& b) {
  if (a.is_number() && b.is_number()) return a.as_number() == b.as_number();
  return a.is_string() && b.is_string() && a.as_string() == b.as_string();
}

const std::vector<json::Value>& field(const json::Value& v, const char* key) {
  const json::Value* found = v.find(key);
  if (found == nullptr) throw json::JsonError(std::string("no ") + key);
  return found->as_array();
}

/// One line per cell that differs between two renderings of `figure`.
std::vector<std::string> cell_diffs(const std::string& figure,
                                    const json::Value& committed,
                                    const json::Value& now) {
  std::vector<std::string> diffs;
  const auto& was_tables = field(committed, "tables");
  const auto& now_tables = field(now, "tables");
  for (std::size_t t = 0; t < std::max(was_tables.size(), now_tables.size());
       ++t) {
    if (t >= was_tables.size() || t >= now_tables.size()) {
      diffs.push_back(figure + " / table " + std::to_string(t) +
                      " / added or removed");
      continue;
    }
    const std::string table = now_tables[t].string_or("table", "?");
    const auto& columns = field(now_tables[t], "columns");
    const auto& was_rows = field(was_tables[t], "rows");
    const auto& now_rows = field(now_tables[t], "rows");
    for (std::size_t r = 0; r < std::max(was_rows.size(), now_rows.size());
         ++r) {
      if (r >= was_rows.size() || r >= now_rows.size()) {
        diffs.push_back(figure + " / " + table + ":row " + std::to_string(r) +
                        " / added or removed");
        continue;
      }
      const auto& was = was_rows[r].as_array();
      const auto& is = now_rows[r].as_array();
      for (std::size_t c = 0; c < std::max(was.size(), is.size()); ++c) {
        if (c < was.size() && c < is.size() && same(was[c], is[c])) continue;
        std::string line = figure + " / " + table + ":" + text_of(is.front());
        line += " / ";
        line += c < columns.size() ? text_of(columns[c])
                                   : std::string("#").append(std::to_string(c));
        line += " / ";
        line += c < was.size() ? text_of(was[c]) : "(none)";
        line += " / ";
        line += c < is.size() ? text_of(is[c]) : "(none)";
        diffs.push_back(line);
      }
    }
  }
  return diffs;
}

TEST(Figures, MatchCommitted) {
  const std::filesystem::path dir = GH_FIGURES_DIR;
  std::vector<std::string> diffs;
  std::set<std::string> names;
  for (std::string_view view : bench::figure_names()) {
    const std::string name(view);
    names.insert(name);
    std::ifstream in(dir / (name + ".json"));
    if (!in) {
      diffs.push_back(name + " / not committed under " + dir.string());
      continue;
    }
    std::stringstream committed;
    committed << in.rdbuf();
    const std::string now = bench::render(name).json;
    if (now == committed.str()) continue;
    std::vector<std::string> cells =
        cell_diffs(name, json::parse(committed.str()), json::parse(now));
    if (cells.empty()) cells.push_back(name + " / title, note or layout");
    diffs.insert(diffs.end(), cells.begin(), cells.end());
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (names.count(entry.path().stem().string()) == 0) {
      diffs.push_back(entry.path().filename().string() +
                      " / not a figure of the matrix");
    }
  }
  std::string report;
  for (const std::string& d : diffs) report += "  " + d + "\n";
  EXPECT_TRUE(diffs.empty())
      << "figure / table:row / column / committed / now\n"
      << report << "regenerate with tools/regen_goldens.sh if intended";
}

}  // namespace
}  // namespace greenhetero
