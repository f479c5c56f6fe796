// JSON layer tests: the writer's output parses back (round-trip), the parser accepts
// the full scalar grammar, and malformed input comes back as kInvalidArgument with a
// position -- never an abort (saved plans arrive from disk, i.e. from users).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>

#include "tofu/util/json.h"

namespace tofu {
namespace {

TEST(JsonParser, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_DOUBLE_EQ(ParseJson("3.5")->AsNumber(), 3.5);
  EXPECT_DOUBLE_EQ(ParseJson("-0.25e2")->AsNumber(), -25.0);
  EXPECT_EQ(ParseJson("12")->AsInt(), 12);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
  EXPECT_EQ(ParseJson("  42  ")->AsInt(), 42);
}

TEST(JsonParser, StringEscapes) {
  EXPECT_EQ(ParseJson("\"a\\n\\t\\\"\\\\b\"")->AsString(), "a\n\t\"\\b");
  EXPECT_EQ(ParseJson("\"\\u0041\"")->AsString(), "A");
  // 2- and 3-byte UTF-8, and a surrogate pair (U+1F600).
  EXPECT_EQ(ParseJson("\"\\u00e9\"")->AsString(), "\xc3\xa9");
  EXPECT_EQ(ParseJson("\"\\u20ac\"")->AsString(), "\xe2\x82\xac");
  EXPECT_EQ(ParseJson("\"\\ud83d\\ude00\"")->AsString(), "\xf0\x9f\x98\x80");
}

TEST(JsonParser, NestedContainers) {
  Result<JsonValue> doc = ParseJson(R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
  ASSERT_TRUE(doc.ok());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->AsArray()[0].AsInt(), 1);
  EXPECT_TRUE(a->AsArray()[2].Find("b")->AsBool());
  EXPECT_TRUE(doc->ObjectAt("c").value()->Find("d")->is_null());
}

TEST(JsonParser, TypedLookupsRecoverFromMistakes) {
  Result<JsonValue> doc = ParseJson(R"({"n": 1.5, "s": "x", "i": 7})");
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->NumberAt("n").value(), 1.5);
  EXPECT_EQ(doc->IntAt("i").value(), 7);
  EXPECT_FALSE(doc->IntAt("n").ok());      // 1.5 is not integral
  // Out of int64 range: rejected, not an undefined-behavior cast.
  EXPECT_FALSE(ParseJson(R"({"big": 1e300})")->IntAt("big").ok());
  EXPECT_FALSE(doc->NumberAt("s").ok());   // wrong kind
  EXPECT_FALSE(doc->NumberAt("zz").ok());  // missing
  EXPECT_EQ(doc->StringAt("zz").value_or("dflt"), "dflt");
  EXPECT_EQ(doc->Find("zz"), nullptr);
}

TEST(JsonParser, DuplicateKeysLastWins) {
  EXPECT_EQ(ParseJson(R"({"k": 1, "k": 2})")->IntAt("k").value(), 2);
}

TEST(JsonParser, MalformedInputReturnsInvalidArgument) {
  const char* bad[] = {
      "",            // empty
      "{",           // unterminated object
      "[1, 2",       // unterminated array
      "[1 2]",       // missing comma
      "{\"a\" 1}",   // missing colon
      "{a: 1}",      // unquoted key
      "\"abc",       // unterminated string
      "\"\\q\"",     // bad escape
      "\"\\u12g4\"", // bad hex digit
      "\"\\ud800\"", // unpaired surrogate
      "01",          // leading zero then trailing garbage
      "1.",          // no digits after point
      "1e",          // no exponent digits
      "-",           // bare minus
      "nul",         // truncated literal
      "true false",  // trailing value
      "\"a\tb\"",    // raw control character
      "1e999",       // overflows double -- must not silently become inf
      "-1e999",
  };
  for (const char* text : bad) {
    Result<JsonValue> r = ParseJson(text);
    EXPECT_FALSE(r.ok()) << "should reject: " << text;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(JsonParser, DepthCapRejectsAdversarialNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonRoundTrip, WriterOutputParsesBack) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("line1\nline2 \"quoted\" \\slash");
  w.Key("pi").Number(3.141592653589793);
  w.Key("big").Number(1.7976931348623157e308);
  w.Key("neg").Int(-42);
  w.Key("flags").BeginArray();
  w.Bool(true).Bool(false);
  w.EndArray();
  w.EndObject();

  Result<JsonValue> doc = ParseJson(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->StringAt("name").value(), "line1\nline2 \"quoted\" \\slash");
  // %.17g survives the round trip bit-exactly.
  EXPECT_EQ(doc->NumberAt("pi").value(), 3.141592653589793);
  EXPECT_EQ(doc->NumberAt("big").value(), 1.7976931348623157e308);
  EXPECT_EQ(doc->IntAt("neg").value(), -42);
  EXPECT_TRUE(doc->ArrayAt("flags").value()->AsArray()[0].AsBool());
}

TEST(JsonRoundTrip, IntWritesTheDigitsOfPrintf) {
  const std::int64_t kValues[] = {0,
                                  -1,
                                  7,
                                  1234567890123,
                                  std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max()};
  for (std::int64_t value : kValues) {
    JsonWriter w;
    w.BeginArray();
    w.Int(value).Int(value);
    w.EndArray();
    char digits[32];
    std::snprintf(digits, sizeof(digits), "%lld", static_cast<long long>(value));
    EXPECT_EQ(w.str(), "[" + std::string(digits) + "," + digits + "]");

    Result<JsonValue> doc = ParseJson(w.str());
    ASSERT_TRUE(doc.ok()) << w.str();
    ASSERT_EQ(doc->AsArray().size(), 2u);
    // Parsed back as a double: exact up to 2^53 and at INT64_MIN (-2^63); INT64_MAX
    // rounds to 2^63, the nearest double.
    EXPECT_EQ(doc->AsArray()[0].AsNumber(), static_cast<double>(value)) << w.str();
  }
  EXPECT_EQ(ParseJson("-9223372036854775808")->AsInt(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(JsonRoundTrip, KeysWithEscapesParseBack) {
  const std::string kKeys[] = {"plain", "quote\"d", "back\\slash", "tab\there",
                               std::string("ctl\x01", 4)};
  JsonWriter w;
  w.BeginObject();
  for (size_t i = 0; i < std::size(kKeys); ++i) {
    w.Key(kKeys[i]).Int(static_cast<std::int64_t>(i));
  }
  w.EndObject();
  Result<JsonValue> doc = ParseJson(w.str());
  ASSERT_TRUE(doc.ok()) << w.str();
  for (size_t i = 0; i < std::size(kKeys); ++i) {
    EXPECT_EQ(doc->IntAt(kKeys[i]).value_or(-1), static_cast<std::int64_t>(i)) << kKeys[i];
  }
  EXPECT_EQ(JsonToString(*doc), w.str());
}

TEST(JsonFiles, ReadTextFileReportsMissing) {
  Result<std::string> missing = ReadTextFile("/nonexistent/definitely_not_here.json");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tofu
