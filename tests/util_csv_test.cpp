#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace greenhetero {
namespace {

TEST(Csv, ParseWithHeader) {
  const CsvTable t = CsvTable::parse("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_EQ(t.header().size(), 3u);
  EXPECT_EQ(t.header()[1], "b");
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_DOUBLE_EQ(t.number(1, 2), 6.0);
}

TEST(Csv, ParseWithoutHeader) {
  const CsvTable t = CsvTable::parse("1,2\n3,4\n", /*has_header=*/false);
  EXPECT_TRUE(t.header().empty());
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_DOUBLE_EQ(t.number(0, 0), 1.0);
}

TEST(Csv, SkipsCommentsAndBlankLines) {
  const CsvTable t = CsvTable::parse("a,b\n# comment\n\n1,2\n");
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Csv, TrimsWhitespace) {
  const CsvTable t = CsvTable::parse("a, b\n 1 ,\t2 \n");
  EXPECT_EQ(t.header()[1], "b");
  EXPECT_DOUBLE_EQ(t.number(0, 1), 2.0);
}

TEST(Csv, ColumnLookup) {
  const CsvTable t = CsvTable::parse("x,y\n1,2\n3,4\n");
  EXPECT_EQ(t.column_index("y"), 1u);
  EXPECT_THROW((void)t.column_index("z"), CsvError);
  EXPECT_DOUBLE_EQ(t.number(0, "x"), 1.0);
}

TEST(Csv, NonNumericCellThrows) {
  const CsvTable t = CsvTable::parse("a\nhello\n");
  EXPECT_THROW((void)t.number(0, 0), CsvError);
}

TEST(Csv, RaggedRowThrows) {
  EXPECT_THROW(CsvTable::parse("a,b\n1,2\n3\n"), CsvError);
}

TEST(Csv, OutOfRangeAccessThrows) {
  const CsvTable t = CsvTable::parse("a\n1\n");
  EXPECT_THROW((void)t.row(5), CsvError);
  EXPECT_THROW((void)t.cell(0, 3), CsvError);
}

TEST(Csv, AddRowChecksWidth) {
  CsvTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_THROW(t.add_row({"1"}), CsvError);
  t.add_numeric_row({3.5, 4.5});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_DOUBLE_EQ(t.number(1, 0), 3.5);
}

TEST(Csv, RoundTripThroughString) {
  CsvTable t({"m", "w"});
  t.add_numeric_row({0.0, 100.0});
  t.add_numeric_row({15.0, 150.5});
  const CsvTable back = CsvTable::parse(t.to_string());
  EXPECT_EQ(back.row_count(), 2u);
  EXPECT_DOUBLE_EQ(back.number(1, "w"), 150.5);
}

TEST(Csv, RoundTripThroughFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "greenhetero_csv_test.csv";
  CsvTable t({"m", "w"});
  t.add_numeric_row({1.0, 2.0});
  t.save(path);
  const CsvTable back = CsvTable::load(path);
  EXPECT_EQ(back.row_count(), 1u);
  EXPECT_DOUBLE_EQ(back.number(0, "w"), 2.0);
  std::filesystem::remove(path);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(CsvTable::load("/nonexistent/path.csv"), CsvError);
}

TEST(Csv, NonFiniteCellsAreRejected) {
  const CsvTable t = CsvTable::parse("a\nnan\ninf\n-inf\n1.5\n");
  EXPECT_THROW((void)t.number(0, 0), CsvError);
  EXPECT_THROW((void)t.number(1, 0), CsvError);
  EXPECT_THROW((void)t.number(2, 0), CsvError);
  EXPECT_DOUBLE_EQ(t.number(3, 0), 1.5);
}

}  // namespace
}  // namespace greenhetero
