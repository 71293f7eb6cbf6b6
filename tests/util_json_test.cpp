// JSON reader used by the trace analyzer: it must parse the exact dialect
// the telemetry exporters write (objects, arrays, escapes, numbers including
// NaN / +Inf / -Inf), preserve duplicate keys in member order with find()
// returning the first match, and throw JsonError (with a byte offset, never
// an assert) on malformed input.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "util/json.h"

namespace greenhetero::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-2.5e3").as_number(), -2500.0);
  EXPECT_DOUBLE_EQ(parse("2.270944e-13").as_number(), 2.270944e-13);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse("  \"padded\"  ").as_string(), "padded");
  // The telemetry encoder's spellings of non-finite doubles.
  EXPECT_TRUE(std::isnan(parse("NaN").as_number()));
  EXPECT_EQ(parse("+Inf").as_number(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse(" -Inf ").as_number(),
            -std::numeric_limits<double>::infinity());
}

TEST(Json, ParsesTraceEventObjects) {
  const Value event = parse(
      R"({"t":45,"rack":0,"phase":"fault_inject","kind":"server_crash",)"
      R"("target":0,"phase":"begin"})");
  ASSERT_TRUE(event.is_object());
  EXPECT_DOUBLE_EQ(event.number_or("t", -1.0), 45.0);
  EXPECT_EQ(event.string_or("kind", ""), "server_crash");
  // Duplicate keys survive in order; find() returns the FIRST match.
  ASSERT_NE(event.find("phase"), nullptr);
  EXPECT_EQ(event.find("phase")->as_string(), "fault_inject");
  const auto& members = event.as_object();
  int phase_members = 0;
  std::string last_phase;
  for (const auto& [key, value] : members) {
    if (key == "phase") {
      ++phase_members;
      last_phase = value.as_string();
    }
  }
  EXPECT_EQ(phase_members, 2);
  EXPECT_EQ(last_phase, "begin");
}

TEST(Json, ParsesNestedArrays) {
  const Value v = parse(R"({"xs":[1,[2,3],{"y":null}],"empty":[]})");
  const auto& xs = v.find("xs")->as_array();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(xs[1].as_array()[1].as_number(), 3.0);
  EXPECT_TRUE(xs[2].find("y")->is_null());
  EXPECT_TRUE(v.find("empty")->as_array().empty());
}

TEST(Json, DecodesStandardAndUnicodeEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d")").as_string(), "a\"b\\c/d");
  EXPECT_EQ(parse(R"("\b\f\n\r\t")").as_string(), "\b\f\n\r\t");
  EXPECT_EQ(parse(R"("Aé€")").as_string(), "A\xC3\xA9\xE2\x82\xAC");
}

TEST(Json, FallbacksApplyOnlyWhenAbsent) {
  const Value v = parse(R"({"a":1,"s":"x"})");
  EXPECT_DOUBLE_EQ(v.number_or("a", 9.0), 1.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 9.0), 9.0);
  EXPECT_EQ(v.string_or("s", "fb"), "x");
  EXPECT_EQ(v.string_or("missing", "fb"), "fb");
  // Present-but-wrong-kind is a schema violation, not a fallback case.
  EXPECT_THROW((void)v.number_or("s", 9.0), JsonError);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, AccessorsThrowOnKindMismatch) {
  const Value num = parse("7");
  EXPECT_THROW((void)num.as_string(), JsonError);
  EXPECT_THROW((void)num.as_object(), JsonError);
  EXPECT_THROW((void)num.find("k"), JsonError);
  EXPECT_THROW((void)parse("[1]").as_bool(), JsonError);
}

TEST(Json, RejectsMalformedInputWithOffset) {
  EXPECT_THROW((void)parse(""), JsonError);
  EXPECT_THROW((void)parse("{"), JsonError);
  EXPECT_THROW((void)parse("{\"a\":}"), JsonError);
  EXPECT_THROW((void)parse("[1,]"), JsonError);
  EXPECT_THROW((void)parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)parse("nul"), JsonError);
  EXPECT_THROW((void)parse("1 2"), JsonError);  // trailing garbage
  EXPECT_THROW((void)parse("nan"), JsonError);  // only the encoder's spellings
  EXPECT_THROW((void)parse("Inf"), JsonError);
  EXPECT_THROW((void)parse("+inf"), JsonError);
  EXPECT_THROW((void)parse("NaNa"), JsonError);
  try {
    (void)parse("{\"a\":12x}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << "error should carry a byte offset: " << e.what();
  }
}

}  // namespace
}  // namespace greenhetero::json
