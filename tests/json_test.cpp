#include "support/json.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace fed {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(parse_json("\"hello\"").as_string(), "hello");
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue v = parse_json(
      R"({"users": ["a", "b"], "n": [1, 2], "data": {"a": {"x": [[1,2]]}}})");
  EXPECT_EQ(v.at("users").as_array().size(), 2u);
  EXPECT_EQ(v.at("users").as_array()[1].as_string(), "b");
  EXPECT_DOUBLE_EQ(
      v.at("data").at("a").at("x").as_array()[0].as_array()[1].as_number(),
      2.0);
}

TEST(Json, HandlesWhitespaceEverywhere) {
  const JsonValue v = parse_json("  { \"a\" :\n [ 1 ,\t2 ] }  ");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\t")").as_string(), "a\"b\\c\nd\t");
  EXPECT_EQ(parse_json(R"("Aé")").as_string(), "A\xC3\xA9");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(parse_json("tru"), std::runtime_error);
  EXPECT_THROW(parse_json("1 2"), std::runtime_error);  // trailing garbage
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse_json("1.2.3"), std::runtime_error);
}

TEST(Json, TypeMismatchThrows) {
  const JsonValue v = parse_json("[1]");
  EXPECT_THROW(v.as_object(), std::runtime_error);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.at("x"), std::runtime_error);
}

TEST(Json, SerializeRoundTrip) {
  const std::string doc =
      R"({"arr":[1,2.5,true,null,"s"],"num":-7,"obj":{"inner":"va\"l"}})";
  const JsonValue v = parse_json(doc);
  const JsonValue again = parse_json(serialize_json(v));
  EXPECT_EQ(v, again);
}

TEST(Json, SerializesIntegersWithoutFraction) {
  JsonValue v(1234.0);
  EXPECT_EQ(serialize_json(v), "1234");
}

TEST(Json, SerializesControlCharactersEscaped) {
  JsonValue v(std::string("a\x01z"));
  EXPECT_EQ(serialize_json(v), "\"a\\u0001z\"");
}

TEST(Json, RejectsNonFiniteNumbers) {
  JsonValue v(std::numeric_limits<double>::infinity());
  EXPECT_THROW(serialize_json(v), std::runtime_error);
}

TEST(Json, FileRoundTrip) {
  const testing::ScopedTempDir tmp;
  const std::string path = tmp.file("json/doc.json");
  JsonObject root;
  root["k"] = JsonValue(JsonArray{JsonValue(1.0), JsonValue("two")});
  save_json_file(path, JsonValue(root));
  const JsonValue loaded = load_json_file(path);
  EXPECT_EQ(loaded.at("k").as_array()[1].as_string(), "two");
}

TEST(Json, MissingFileThrows) {
  const testing::ScopedTempDir tmp;
  EXPECT_THROW(load_json_file(tmp.file("missing.json")),
               std::runtime_error);
}

}  // namespace
}  // namespace fed
