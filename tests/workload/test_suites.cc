/**
 * @file
 * Tests for the 13 Table 4 suites: presence, ordering, spec sanity and
 * (for a couple of representatives, at reduced scale) footprint bands.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "zbp/trace/trace_stats.hh"
#include "zbp/workload/suites.hh"

namespace zbp::workload
{
namespace
{

TEST(Suites, ThirteenInPaperOrder)
{
    const auto &all = paperSuites();
    ASSERT_EQ(all.size(), 13u);
    EXPECT_EQ(all.front().name, "cb84");
    EXPECT_EQ(all[4].name, "wasdb_cbw2");
    EXPECT_EQ(all.back().name, "ztrade6");
}

TEST(Suites, PaperFootprintsMatchTable4)
{
    // Spot-check the Table 4 constants.
    EXPECT_EQ(findSuite("cb84").paperUniqueBranches, 15'244u);
    EXPECT_EQ(findSuite("cicsdb2").paperUniqueTaken, 27'500u);
    EXPECT_EQ(findSuite("trade6").paperUniqueBranches, 115'509u);
    EXPECT_EQ(findSuite("tpf").paperUniqueTaken, 9'317u);
    EXPECT_EQ(findSuite("daytrader_db").paperUniqueBranches, 34'819u);
}

TEST(Suites, SpecsAreInternallySane)
{
    for (const auto &s : paperSuites()) {
        EXPECT_GT(s.build.numFunctions, 0u);
        EXPECT_GT(s.gen.length, 100'000u);
        EXPECT_GE(s.gen.numRoots, 16u);
        EXPECT_GE(s.gen.hotRoots, 8u);
        EXPECT_LE(s.gen.hotRoots, s.gen.numRoots);
        EXPECT_GT(s.paperUniqueBranches, s.paperUniqueTaken);
    }
}

TEST(Suites, BiggerPaperFootprintMeansBiggerProgram)
{
    // Within one personality, function counts scale with Table 4.
    EXPECT_GT(findSuite("cicsdb2").build.numFunctions,
              findSuite("cb84").build.numFunctions);
    EXPECT_GT(findSuite("trade6").build.numFunctions,
              findSuite("wasdb_cbw2").build.numFunctions / 2);
}

TEST(Suites, UnknownSuiteDies)
{
    EXPECT_DEATH((void)findSuite("nope"), "unknown suite");
}

TEST(Suites, ScaledTraceHasProportionalFootprint)
{
    // At 1/20 scale the footprint is reduced but still thousands of
    // unique branches for a mid-size suite.
    const auto t = makeSuiteTrace(findSuite("cb84"), 0.05);
    const auto st = trace::computeStats(t);
    EXPECT_GT(st.uniqueBranchIas, 1'000u);
    EXPECT_GT(st.uniqueTakenIas, 500u);
    EXPECT_LT(st.uniqueTakenIas, st.uniqueBranchIas);
    EXPECT_TRUE(t.consistent());
}

TEST(Suites, TakenRatioRoughlyMatchesPaperDirection)
{
    // TPF has the highest ever-taken ratio in Table 4 (0.83); WASDB the
    // lowest (0.45).  The synthetic recipes should preserve the
    // ordering even at reduced scale.
    const auto tpf = trace::computeStats(
            makeSuiteTrace(findSuite("tpf"), 0.05));
    const auto was = trace::computeStats(
            makeSuiteTrace(findSuite("wasdb_cbw2"), 0.05));
    const double r_tpf = static_cast<double>(tpf.uniqueTakenIas) /
                         static_cast<double>(tpf.uniqueBranchIas);
    const double r_was = static_cast<double>(was.uniqueTakenIas) /
                         static_cast<double>(was.uniqueBranchIas);
    EXPECT_GT(r_tpf, r_was);
}

TEST(Suites, EnvLengthScaleDefaultsToOne)
{
    unsetenv("ZBP_LEN_SCALE");
    EXPECT_DOUBLE_EQ(envLengthScale(), 1.0);
}

TEST(Suites, EnvLengthScaleParses)
{
    setenv("ZBP_LEN_SCALE", "0.25", 1);
    EXPECT_DOUBLE_EQ(envLengthScale(), 0.25);
    for (const char *bad : {"garbage", "nan", "inf", "2abc", "-1", ""}) {
        setenv("ZBP_LEN_SCALE", bad, 1);
        EXPECT_DOUBLE_EQ(envLengthScale(), 1.0) << "ZBP_LEN_SCALE=" << bad;
    }
    unsetenv("ZBP_LEN_SCALE");
}

} // namespace
} // namespace zbp::workload
