/// Tests for the minimal JSON document model: building, dumping, parsing,
/// round-trip fidelity of numbers, escaping, and error reporting.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace rdse {
namespace {

TEST(Json, BuildsAndDumpsCompactDocuments) {
  JsonValue doc = JsonValue::object();
  doc.set("name", "sweep");
  doc.set("runs", std::int64_t{3});
  doc.set("ok", true);
  doc.set("nothing", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push_back(1.5);
  arr.push_back("two");
  doc.set("items", std::move(arr));

  EXPECT_EQ(doc.dump(),
            R"({"name": "sweep", "runs": 3, "ok": true, "nothing": null, )"
            R"("items": [1.5, "two"]})");
}

TEST(Json, PrettyDumpIndentsAndTerminates) {
  JsonValue doc = JsonValue::object();
  doc.set("a", JsonValue::array());
  doc.set("b", 1);
  const std::string text = doc.dump(2);
  EXPECT_NE(text.find("{\n  \"a\": []"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Json, SetReplacesExistingKeysInPlace) {
  JsonValue doc = JsonValue::object();
  doc.set("k", 1);
  doc.set("other", 2);
  doc.set("k", "replaced");
  EXPECT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.at("k").as_string(), "replaced");
  // Insertion order is preserved, replacement does not reorder.
  EXPECT_EQ(doc.members()[0].first, "k");
}

TEST(Json, ParsesNestedDocuments) {
  const JsonValue doc = JsonValue::parse(R"(
    {
      "points": [{"x": 1e2, "hit": 0.25}, {"x": -3.5, "hit": 1}],
      "name": "device-size",
      "dry": false,
      "none": null
    })");
  EXPECT_EQ(doc.at("name").as_string(), "device-size");
  EXPECT_FALSE(doc.at("dry").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  ASSERT_EQ(doc.at("points").size(), 2u);
  EXPECT_EQ(doc.at("points").items()[0].at("x").as_number(), 100.0);
  EXPECT_EQ(doc.at("points").items()[1].at("x").as_number(), -3.5);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), Error);
}

TEST(Json, StringEscapesRoundTrip) {
  JsonValue doc = JsonValue::object();
  doc.set("s", "line\nquote\"back\\slash\ttab");
  const JsonValue parsed = JsonValue::parse(doc.dump());
  EXPECT_EQ(parsed.at("s").as_string(), "line\nquote\"back\\slash\ttab");

  const JsonValue unicode = JsonValue::parse(R"("ABé")");
  EXPECT_EQ(unicode.as_string(), "AB\xC3\xA9");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  // BMP code points: 1-, 2- and 3-byte UTF-8.
  EXPECT_EQ(JsonValue::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(JsonValue::parse(R"("\u00E9")").as_string(), "\xC3\xA9");
  EXPECT_EQ(JsonValue::parse(R"("\u20AC")").as_string(),
            "\xE2\x82\xAC");  // euro sign
}

TEST(Json, SurrogatePairsDecodeToFourByteUtf8) {
  // Regression: each half of a surrogate pair used to be emitted as its
  // own 3-byte sequence (invalid CESU-8 style), so U+1F600 came out as six
  // bytes of garbage instead of F0 9F 98 80.
  EXPECT_EQ(JsonValue::parse(R"("\uD83D\uDE00")").as_string(),
            "\xF0\x9F\x98\x80");  // U+1F600
  // U+10000, the lowest astral code point (pair D800 DC00).
  EXPECT_EQ(JsonValue::parse(R"("\uD800\uDC00")").as_string(),
            "\xF0\x90\x80\x80");
  // U+10FFFF, the highest (pair DBFF DFFF).
  EXPECT_EQ(JsonValue::parse(R"("\uDBFF\uDFFF")").as_string(),
            "\xF4\x8F\xBF\xBF");
  // Mixed with surrounding text and escapes, lower-case hex accepted.
  EXPECT_EQ(JsonValue::parse(R"("a\ud83d\ude00\tb")").as_string(),
            "a\xF0\x9F\x98\x80\tb");
}

TEST(Json, LoneSurrogatesAreRejected) {
  const char* bad[] = {
      R"("\uD800")",        // high surrogate at end of string
      R"("\uD800x")",       // high surrogate followed by a plain char
      R"("\uD800\n")",      // ...or by a non-\u escape
      R"("\uD800\u0041")",  // ...or by a \u escape outside DC00-DFFF
      R"("\uDC00")",        // low surrogate with no preceding high half
      R"("\uDE00\uD83D")",  // pair in the wrong order
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)JsonValue::parse(text), Error) << "input: " << text;
  }
}

TEST(Json, MutableAccessorsRewriteNestedDocuments) {
  JsonValue doc =
      JsonValue::parse(R"({"keep": 1, "points": [{"a": 1, "b": 2}]})");
  JsonValue* points = doc.find("points");
  ASSERT_NE(points, nullptr);
  for (JsonValue& point : points->items()) {
    point.set("b", 3);
  }
  EXPECT_EQ(doc.dump(), R"({"keep": 1, "points": [{"a": 1, "b": 3}]})");
}

TEST(Json, NumbersRoundTripBitExactly) {
  const double values[] = {0.0,  1.0 / 3.0, 1e-9, 76.4, -40.0,
                           18.1, 6.02e23,   static_cast<double>(1LL << 53)};
  for (const double v : values) {
    const JsonValue parsed = JsonValue::parse(JsonValue(v).dump());
    EXPECT_EQ(parsed.as_number(), v);
  }
  // JSON cannot carry non-finite numbers; they degrade to null.
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(JsonValue(std::nan("")).dump(), "null");
}

TEST(Json, AsIntRejectsValuesOutsideInt64Range) {
  EXPECT_EQ(JsonValue(76.9).as_int(), 76);
  EXPECT_EQ(JsonValue(-3.2).as_int(), -3);
  EXPECT_THROW((void)JsonValue(1e300).as_int(), Error);
  EXPECT_THROW((void)JsonValue(-1e19).as_int(), Error);
}

TEST(Json, KindMismatchesThrow) {
  const JsonValue s("text");
  EXPECT_THROW((void)s.as_number(), Error);
  EXPECT_THROW((void)s.as_bool(), Error);
  EXPECT_THROW((void)s.items(), Error);
  EXPECT_THROW((void)s.find("k"), Error);
  EXPECT_THROW((void)s.size(), Error);
  JsonValue arr = JsonValue::array();
  EXPECT_THROW(arr.set("k", 1), Error);
  JsonValue obj = JsonValue::object();
  EXPECT_THROW(obj.push_back(1), Error);
}

TEST(Json, MalformedDocumentsThrowWithOffset) {
  const char* bad[] = {"",           "{",          "[1, 2",
                       "{\"a\" 1}",  "tru",        "nul",
                       "{\"a\": 1} x", "\"unterminated", "{\"a\":}",
                       "[1,,2]",     "01a##",      "\"bad \\q escape\""};
  for (const char* text : bad) {
    EXPECT_THROW((void)JsonValue::parse(text), Error) << "input: " << text;
  }
  try {
    (void)JsonValue::parse("[1, 2");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, HostileNestingDepthIsAnErrorNotAStackOverflow) {
  const std::string deep(100'000, '[');
  try {
    (void)JsonValue::parse(deep);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"),
              std::string::npos);
  }
  // Reasonable nesting still parses.
  EXPECT_NO_THROW((void)JsonValue::parse(std::string(100, '[') +
                                         std::string(100, ']')));
}

}  // namespace
}  // namespace rdse
