/**
 * @file
 * Tests for counters and stat groups.
 */

#include <gtest/gtest.h>

#include "zbp/stats/stats.hh"

namespace zbp::stats
{
namespace
{

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Group, RegisterAndRead)
{
    Counter c;
    Group g("unit");
    g.add("hits", c, "hit count");
    g.addDerived("twice", [&c] { return 2.0 * c.value(); });
    c += 3;
    EXPECT_DOUBLE_EQ(g.value("hits"), 3.0);
    EXPECT_DOUBLE_EQ(g.value("twice"), 6.0);
    EXPECT_TRUE(g.has("hits"));
    EXPECT_FALSE(g.has("misses"));
}

TEST(Group, DumpFormat)
{
    Counter c;
    c += 7;
    Group g("grp");
    g.add("x", c, "a thing");
    std::string out;
    g.dump(out);
    EXPECT_NE(out.find("grp.x"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("a thing"), std::string::npos);
}

TEST(GroupDeathTest, MissingStatPanics)
{
    Group g("grp");
    EXPECT_DEATH((void)g.value("nope"), "not found");
}

TEST(Group, DumpGoldenLine)
{
    Counter c;
    c += 7;
    Group g("grp");
    g.add("x", c, "a thing");
    std::string out;
    g.dump(out);
    // The exact fixed-width format ("%-48s %16.6g  # %s\n") other
    // tooling greps for: name left-padded to 48, value right-aligned
    // in 16, two spaces before the comment.
    const std::string expect = "grp.x" + std::string(43, ' ') + ' ' +
                               std::string(15, ' ') + "7  # a thing\n";
    EXPECT_EQ(out, expect);
}

// Regression: dump() used a fixed 256-byte line buffer, so a long
// group/stat name or description was silently truncated mid-line.
TEST(Group, DumpDoesNotTruncateLongLines)
{
    const std::string long_name(200, 'n');
    const std::string long_desc(300, 'd');
    Counter c;
    c += 1;
    Group g("averylonggroupname");
    g.add(long_name, c, long_desc);
    std::string out;
    g.dump(out);
    EXPECT_NE(out.find("averylonggroupname." + long_name),
              std::string::npos);
    EXPECT_NE(out.find(long_desc), std::string::npos);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.back(), '\n');
    // One complete line, not a truncated prefix.
    EXPECT_GT(out.size(), long_name.size() + long_desc.size());
}

// A ratio over an empty run (0/0 -> nan, n/0 -> inf) must dump and
// read back as 0, keeping dump output parseable.
TEST(Group, NonFiniteDerivedValuesDumpAsZero)
{
    Counter num, den;
    num += 5; // 5 / 0 -> inf
    Group g("grp");
    g.addDerived("ratioInf", [&] {
        return static_cast<double>(num.value()) /
               static_cast<double>(den.value());
    });
    g.addDerived("ratioNan",
                 [] { return 0.0 / 0.0; });
    EXPECT_DOUBLE_EQ(g.value("ratioInf"), 0.0);
    EXPECT_DOUBLE_EQ(g.value("ratioNan"), 0.0);
    std::string out;
    g.dump(out);
    EXPECT_EQ(out.find("inf"), std::string::npos);
    EXPECT_EQ(out.find("nan"), std::string::npos);
}

TEST(Group, EmptyRunDumpIsCleanForEveryScalar)
{
    // An "empty run": counters never ticked, ratios all 0/0.
    Counter hits, accesses;
    Group g("cache");
    g.add("hits", hits);
    g.add("accesses", accesses);
    g.addDerived("hitRate", [&] {
        return static_cast<double>(hits.value()) /
               static_cast<double>(accesses.value());
    });
    std::string out;
    g.dump(out);
    EXPECT_NE(out.find("cache.hitRate"), std::string::npos);
    EXPECT_EQ(out.find("nan"), std::string::npos);
    EXPECT_DOUBLE_EQ(g.value("hitRate"), 0.0);
}

TEST(Group, ValueLooksUpDerivedAndCounterAlike)
{
    Counter c;
    c += 9;
    Group g("grp");
    g.add("raw", c);
    g.addDerived("scaled", [&c] { return c.value() / 3.0; });
    EXPECT_DOUBLE_EQ(g.value("raw"), 9.0);
    EXPECT_DOUBLE_EQ(g.value("scaled"), 3.0);
}

} // namespace
} // namespace zbp::stats
