// parse_json, the one JSON reader (common/json.hpp): the RFC 8259
// accept/reject table the emitter tests rely on, the reader's additions
// (decoded \u escapes, duplicate keys, the nesting limit, typed reads), and
// a JsonWriter round trip of every byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/json.hpp"

namespace supmr {
namespace {

TEST(ParseJson, AcceptsValidDocuments) {
  for (const char* doc : {
           "{}", "[]",
           "  {\"a\":[1,2.5,-3e2,\"x\\n\",true,false,null,{\"b\":[]}]}  ",
           "\"\\u00e9\"", "0.125", "-0", "1E+2", "\"\\ud83d\\ude00\"",
       }) {
    EXPECT_EQ(parse_json(doc).status().message(), "") << doc;
  }
}

TEST(ParseJson, RejectsInvalidDocuments) {
  for (const char* doc : {
           "", "{", "[1,]", "-", "1.", "1e", "tru",
           "{\"a\":1,}",          // trailing comma
           "{'a':1}",             // single quotes
           "[1 2]",
           "{\"a\":01}",          // leading zero
           "\"\t\"",              // raw control char
           "\"\\u12g4\"", "\"\\u12\"",
           "NaN",
           "{} []",               // trailing data
           "{\"a\":1,\"a\":2}",   // duplicate key
           "\"\\ud800\"",         // unpaired surrogates
           "\"\\udc00\\ud800\"", "\"\\ud800\\u0041\"",
       }) {
    EXPECT_FALSE(parse_json(doc).ok()) << doc;
  }
}

TEST(ParseJson, KeepsStructureAndDecodesEscapes) {
  auto doc = parse_json(
      "{\"b\": [1, \"\\u00e9\\u20ac\\ud83d\\ude00\\n\\/\"], \"a\": {}}");
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  ASSERT_EQ(doc->type(), JsonValue::Type::kObject);
  ASSERT_EQ(doc->members().size(), 2u);
  EXPECT_EQ(doc->members()[0].first, "b");  // document order
  EXPECT_EQ(doc->members()[1].second.type(), JsonValue::Type::kObject);
  const auto& items = doc->members()[0].second.items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(*items[0].as<int>(), 1);
  EXPECT_EQ(*items[1].as<std::string>(),
            "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\n/");
}

TEST(ParseJson, RejectsNestingPastTheLimit) {
  const auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(parse_json(nested(kMaxJsonDepth)).ok());
  EXPECT_FALSE(parse_json(nested(kMaxJsonDepth + 1)).ok());
}

TEST(ParseJson, TypedReadsNeedTheTypeAndTheRange) {
  const auto read = [](const char* doc) { return *parse_json(doc); };
  EXPECT_TRUE(*read("true").as<bool>());
  EXPECT_FALSE(read("1").as<bool>().ok());
  EXPECT_FALSE(read("\"true\"").as<bool>().ok());
  EXPECT_FALSE(read("2").as<std::string>().ok());
  EXPECT_FALSE(read("\"2\"").as<std::uint64_t>().ok());
  EXPECT_EQ(*read("18446744073709551615").as<std::uint64_t>(), UINT64_MAX);
  EXPECT_FALSE(read("18446744073709551616").as<std::uint64_t>().ok());
  EXPECT_FALSE(read("-1").as<std::uint64_t>().ok());
  EXPECT_FALSE(read("1.0").as<std::uint64_t>().ok());
  EXPECT_FALSE(read("1e3").as<std::uint64_t>().ok());
  EXPECT_EQ(*read("-9223372036854775808").as<std::int64_t>(), INT64_MIN);
  EXPECT_FALSE(read("9223372036854775808").as<std::int64_t>().ok());
  EXPECT_EQ(*read("-2147483648").as<int>(), INT32_MIN);
  const Status too_big = read("3000000000").as<int>().status();
  EXPECT_EQ(too_big.message(),
            "expected an integer in [-2147483648, 2147483647], got 3000000000");
}

TEST(ParseJson, ReadsBackEveryByteJsonWriterWrites) {
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes += static_cast<char>(b);
  JsonWriter w;
  w.value(bytes);
  auto doc = parse_json(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(*doc->as<std::string>(), bytes);
}

}  // namespace
}  // namespace supmr
