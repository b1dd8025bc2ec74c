/**
 * @file
 * Tests that the configuration factories reproduce Table 3 and the
 * Figure 5-7 sweep points.
 */

#include <gtest/gtest.h>

#include "zbp/sim/configs.hh"

namespace zbp::sim
{
namespace
{

TEST(Configs, Table3Row1NoBtb2)
{
    const auto p = configNoBtb2();
    EXPECT_FALSE(p.btb2Enabled);
    EXPECT_EQ(p.btb1.entries(), 4096u);
    EXPECT_EQ(p.btbp.entries(), 768u);
}

TEST(Configs, Table3Row2Btb2Enabled)
{
    const auto p = configBtb2();
    EXPECT_TRUE(p.btb2Enabled);
    EXPECT_EQ(p.btb1.rows, 1024u);
    EXPECT_EQ(p.btb1.ways, 4u);
    EXPECT_EQ(p.btbp.rows, 128u);
    EXPECT_EQ(p.btbp.ways, 6u);
    EXPECT_EQ(p.btb2.rows, 4096u);
    EXPECT_EQ(p.btb2.ways, 6u);
    EXPECT_EQ(p.engine.numTrackers, 3u);
    EXPECT_EQ(p.search.missSearchLimit, 4u);
}

TEST(Configs, Table3Row3LargeBtb1)
{
    const auto p = configLargeBtb1();
    EXPECT_FALSE(p.btb2Enabled);
    EXPECT_EQ(p.btb1.rows, 4096u);
    EXPECT_EQ(p.btb1.ways, 6u);
    EXPECT_EQ(p.btb1.entries(), 24u * 1024u);
}

TEST(Configs, Fig5SizeSweep)
{
    const auto p = configBtb2Sized(1024, 6);
    EXPECT_EQ(p.btb2.entries(), 6u * 1024u);
    EXPECT_TRUE(p.btb2Enabled);
}

TEST(Configs, Fig6MissLimitSweep)
{
    EXPECT_EQ(configMissLimit(2).search.missSearchLimit, 2u);
    EXPECT_EQ(configMissLimit(8).search.missSearchLimit, 8u);
}

TEST(Configs, Fig7TrackerSweep)
{
    EXPECT_EQ(configTrackers(1).engine.numTrackers, 1u);
    EXPECT_EQ(configTrackers(6).engine.numTrackers, 6u);
}

} // namespace
} // namespace zbp::sim
