/**
 * @file
 * Tests for the experiment driver (Fig2Row math, SuiteRunner caching).
 */

#include <gtest/gtest.h>

#include "zbp/sim/simulator.hh"

namespace zbp::sim
{
namespace
{

TEST(Fig2Row, DerivedMetrics)
{
    Fig2Row row;
    row.base.cpi = 2.0;
    row.withBtb2.cpi = 1.8;   // 10% better
    row.largeBtb1.cpi = 1.6;  // 20% better
    EXPECT_NEAR(row.btb2Improvement(), 10.0, 1e-9);
    EXPECT_NEAR(row.largeBtb1Improvement(), 20.0, 1e-9);
    EXPECT_NEAR(row.effectiveness(), 50.0, 1e-9);
}

TEST(Fig2Row, ZeroLargeImprovementGivesZeroEffectiveness)
{
    Fig2Row row;
    row.base.cpi = 2.0;
    row.withBtb2.cpi = 1.9;
    row.largeBtb1.cpi = 2.0;
    EXPECT_DOUBLE_EQ(row.effectiveness(), 0.0);
}

TEST(Simulator, RunOneProducesResults)
{
    const auto t = workload::makeSuiteTrace(
            workload::findSuite("cb84"), 0.02);
    const auto r = runOne(configNoBtb2(), t);
    EXPECT_EQ(r.instructions, t.size());
    EXPECT_GT(r.cycles, r.instructions / 3);
    EXPECT_GT(r.branches, 0u);
}

TEST(Simulator, SuiteRunnerBuildsAllThirteen)
{
    SuiteRunner runner(0.01);
    EXPECT_EQ(runner.traces().size(), 13u);
    for (const auto &t : runner.traces()) {
        EXPECT_FALSE(t->empty());
        EXPECT_TRUE(t->consistent());
    }
}

TEST(Simulator, SuiteRunnerHandlesShareStorage)
{
    SuiteRunner runner(0.01);
    // Handles are shared, not deep copies: copying the handle vector
    // must alias the same Trace objects and instruction storage.
    const std::vector<trace::TraceHandle> copies = runner.traces();
    ASSERT_EQ(copies.size(), runner.traces().size());
    for (std::size_t i = 0; i < copies.size(); ++i) {
        EXPECT_EQ(copies[i].get(), runner.traces()[i].get());
        EXPECT_EQ(copies[i]->data(), runner.traces()[i]->data());
        EXPECT_GE(copies[i].use_count(), 2);
    }
}

TEST(Simulator, SuiteRunnerCachesBaseline)
{
    SuiteRunner runner(0.01);
    int progress_calls = 0;
    runner.setProgress([&](const std::string &) { ++progress_calls; });
    const auto first = runner.sweepImprovements({configBtb2()});
    EXPECT_EQ(progress_calls, 2 * 13); // baseline + sweep point
    progress_calls = 0;
    const auto again = runner.sweepImprovements({configBtb2()});
    EXPECT_EQ(progress_calls, 13); // the baseline is not re-run
    EXPECT_EQ(again, first);
}

TEST(Simulator, ImprovementsHaveOnePerSuite)
{
    SuiteRunner runner(0.01);
    int progress_calls = 0;
    runner.setProgress([&](const std::string &) { ++progress_calls; });
    const auto imps = runner.sweepImprovements({configBtb2(), configBtb2()});
    ASSERT_EQ(imps.size(), 2u);
    EXPECT_EQ(imps[0].size(), 13u);
    EXPECT_EQ(imps[1], imps[0]);
    EXPECT_EQ(progress_calls, 3 * 13); // baseline + 2 sweep points
}

} // namespace
} // namespace zbp::sim
