/**
 * @file
 * Tests for the JSON reader and escaper (util/json.hh): strict syntax,
 * exact 64-bit integers, exact "%.17g" doubles, escapes that round-trip
 * every byte, and no partial result from a truncated or corrupt
 * document.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "zbp/util/json.hh"

namespace zbp::json
{
namespace
{

TEST(JsonReader, ParsesNestedDocument)
{
    const auto v = parse(
            " {\"a\": [1, -2.5e3, true, false, null], \"b\": {\"c\": \"d\"},"
            " \"e\": []}\n");
    ASSERT_TRUE(v);
    ASSERT_EQ(v->kind, Value::Kind::kObject);
    const Value &a = (*v)["a"];
    ASSERT_EQ(a.kind, Value::Kind::kArray);
    ASSERT_EQ(a.items.size(), 5u);
    EXPECT_EQ(a.items[0].u64(), 1u);
    EXPECT_EQ(a.items[1].num(), -2500.0);
    EXPECT_EQ(a.items[1].u64(), std::nullopt);
    EXPECT_EQ(a.items[2].boolean(), true);
    EXPECT_EQ(a.items[3].boolean(), false);
    EXPECT_EQ(a.items[4].kind, Value::Kind::kNull);
    EXPECT_EQ(*(*v)["b"]["c"].str(), "d");
    EXPECT_TRUE((*v)["e"].items.empty());
    EXPECT_EQ((*v)["missing"].kind, Value::Kind::kNull);
    EXPECT_EQ((*v)["missing"].str(), nullptr);
}

TEST(JsonReader, EscapeRoundTripsEveryByte)
{
    std::string all;
    for (int b = 0; b < 256; ++b)
        all += static_cast<char>(b);
    const std::string lit = '"' + escape(all) + '"';
    for (const char c : lit.substr(1, lit.size() - 2))
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
                << "escape() left a raw control byte";
    const auto v = parse(lit);
    ASSERT_TRUE(v);
    EXPECT_EQ(*v->str(), all);
    EXPECT_EQ(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
}

TEST(JsonReader, DecodesUnicodeEscapesToUtf8)
{
    EXPECT_EQ(*parse("\"\\u0041\\u00e9\\u20AC\"")->str(),
              "A\xC3\xA9\xE2\x82\xAC");
    EXPECT_EQ(*parse("\"\\ud83d\\ude00\"")->str(), "\xF0\x9F\x98\x80");
    EXPECT_EQ(*parse("\"\\b\\f\\n\\r\\t\\/\"")->str(), "\b\f\n\r\t/");
    EXPECT_FALSE(parse("\"\\ud83d\""));       // lone high surrogate
    EXPECT_FALSE(parse("\"\\ude00\""));       // lone low surrogate
    EXPECT_FALSE(parse("\"\\u00g0\""));       // not hex
    EXPECT_FALSE(parse("\"\\u00\""));         // short
}

TEST(JsonReader, IntegersStayExactAcrossAllSixtyFourBits)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(parse("18446744073709551615")->u64(), kMax);
    EXPECT_EQ(parse("9007199254740993")->u64(), (1ull << 53) + 1);
    EXPECT_EQ(parse("0")->u64(), 0u);
    EXPECT_EQ(parse("18446744073709551616")->u64(), std::nullopt);
    EXPECT_EQ(parse("-1")->u64(), std::nullopt);
    EXPECT_EQ(parse("1.0")->u64(), std::nullopt);
    EXPECT_EQ(parse("1e3")->u64(), std::nullopt);
    EXPECT_EQ(parse("\"7\"")->u64(), std::nullopt);
}

TEST(JsonReader, PercentSeventeenGDoublesReadBackBitExact)
{
    for (const double d : {0.0, 1.0 / 3.0, 2.718281828459045, 1e-300,
                           1.7976931348623157e308, 123456.789e-7}) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        const auto v = parse(buf);
        ASSERT_TRUE(v) << buf;
        ASSERT_TRUE(v->num()) << buf;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(*v->num()),
                  std::bit_cast<std::uint64_t>(d))
                << buf;
    }
}

TEST(JsonReader, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", " ", "{", "}", "[1,]", "[1 2]", "{\"a\"}", "{\"a\":}",
          "{\"a\":1,}", "{a:1}", "01", "1.", ".5", "-", "1e", "+1",
          "tru", "nul", "True", "\"abc", "\"a\\x\"", "\"tab\there\"",
          "{} x", "[] []", "\"\\", "nan", "inf"})
        EXPECT_FALSE(parse(bad)) << "accepted: " << bad;
    // Nesting is capped rather than recursing without bound.
    EXPECT_FALSE(parse(std::string(100000, '[')));
    EXPECT_TRUE(parse(std::string(32, '[') + std::string(32, ']')));
}

TEST(JsonReader, EveryTruncationIsRejected)
{
    const std::string doc =
            "{\"s\":\"a\\u0001\\\"b\",\"n\":[1,2.5,-3e4],\"t\":true,"
            "\"o\":{\"x\":null}}";
    ASSERT_TRUE(parse(doc));
    for (std::size_t n = 0; n < doc.size(); ++n)
        EXPECT_FALSE(parse(doc.substr(0, n))) << n;
}

TEST(JsonReader, EverySingleByteCorruptionParsesOrIsRejected)
{
    const std::string doc =
            "{\"s\":\"a\\u0001\\\"b\\ud83d\\ude00\",\"n\":[1,2.5,-3e4],"
            "\"t\":true,\"f\":false,\"o\":{\"x\":null}}";
    std::size_t parsed = 0, rejected = 0;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        for (int b = 0; b < 256; ++b) {
            std::string bad = doc;
            bad[i] = static_cast<char>(b);
            // Bounds are the sanitizer's job: any out-of-range read in
            // the parser fails the instrumented run.
            (parse(bad) ? parsed : rejected) += 1;
        }
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace zbp::json
