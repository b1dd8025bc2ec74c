/**
 * @file
 * Tests for the experiment driver (Fig2Row math, runOne).
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

} // namespace
} // namespace zbp::sim
