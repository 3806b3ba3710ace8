#include "common/json.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

namespace msim {
namespace {

TEST(JsonWriter, ObjectWithScalars) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("a", std::uint64_t{1});
  w.kv("b", true);
  w.kv("c", "text");
  w.kv("d", 1.5);
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(), R"({"a":1,"b":true,"c":"text","d":1.5})");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.key("xs");
  w.begin_array();
  w.value(std::int64_t{-3});
  w.begin_object();
  w.kv("k", "v");
  w.end_object();
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"xs":[-3,{"k":"v"},null]})");
}

TEST(JsonWriter, EscapesControlAndSpecialCharacters) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_array();
  w.value("a\"b\\c\n\t\x01");
  w.end_array();
  EXPECT_EQ(os.str(), "[\"a\\\"b\\\\c\\n\\t\\u0001\"]");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriter, IndentedOutputIsStable) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object();
  w.kv("n", std::uint64_t{7});
  w.end_object();
  EXPECT_EQ(os.str(), "{\n  \"n\": 7\n}");
}

TEST(JsonValue, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("-12.25e1").as_number(), -122.5);
  EXPECT_EQ(JsonValue::parse(R"("hi\nthere")").as_string(), "hi\nthere");
}

TEST(JsonValue, ParsesUnicodeEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(JsonValue, ParsesNestedDocument) {
  const auto v = JsonValue::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  const auto& xs = v.at("a").as_array();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[1].as_number(), 2.0);
  EXPECT_TRUE(xs[2].at("b").as_bool());
  EXPECT_TRUE(v.contains("c"));
  EXPECT_FALSE(v.contains("missing"));
  EXPECT_THROW((void)v.at("missing"), std::invalid_argument);
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("nul"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("{} junk"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("\"unterminated"), std::invalid_argument);
  // Nesting is bounded before the recursion can exhaust the stack.
  EXPECT_THROW((void)JsonValue::parse(std::string(1'000'000, '[')),
               std::invalid_argument);
}

TEST(JsonValue, TypeMismatchThrows) {
  const auto v = JsonValue::parse("[1]");
  EXPECT_THROW((void)v.as_object(), std::invalid_argument);
  EXPECT_THROW((void)v.as_number(), std::invalid_argument);
}

TEST(JsonRoundTrip, WriterOutputParsesBack) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object();
  w.kv("count", std::uint64_t{42});
  w.key("values");
  w.begin_array();
  for (int i = 0; i < 4; ++i) w.value(static_cast<double>(i) * 0.5);
  w.end_array();
  w.kv("label", "sweep \"A\"");
  w.end_object();
  ASSERT_TRUE(w.complete());

  const auto v = JsonValue::parse(os.str());
  EXPECT_DOUBLE_EQ(v.at("count").as_number(), 42.0);
  EXPECT_EQ(v.at("values").as_array().size(), 4u);
  EXPECT_DOUBLE_EQ(v.at("values").as_array()[3].as_number(), 1.5);
  EXPECT_EQ(v.at("label").as_string(), "sweep \"A\"");
}

TEST(JsonEscape, QuotesString) {
  EXPECT_EQ(json_escape("a\"b"), "\"a\\\"b\"");
}

}  // namespace
}  // namespace msim
