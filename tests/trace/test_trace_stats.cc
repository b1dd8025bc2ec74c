/**
 * @file
 * Tests for the Table 4 footprint statistics.
 */

#include <gtest/gtest.h>

#include "zbp/trace/trace_stats.hh"

namespace zbp::trace
{
namespace
{

Instruction
make(Addr ia, std::uint8_t len, InstKind k, bool taken, Addr tgt)
{
    Instruction i;
    i.ia = ia;
    i.length = len;
    i.kind = k;
    i.taken = taken;
    if (taken)
        i.setTarget(tgt);
    return i;
}

TEST(TraceStats, EmptyTrace)
{
    const TraceStats s = computeStats(Trace{});
    EXPECT_EQ(s.instructions, 0u);
    EXPECT_EQ(s.branches, 0u);
    EXPECT_DOUBLE_EQ(s.branchFraction(), 0.0);
}

TEST(TraceStats, CountsUniqueAndDynamic)
{
    Trace t;
    // A small loop executed twice: branch at 0x104 taken once then
    // not-taken; a cold branch at 0x108 never taken.
    t.push(make(0x100, 4, InstKind::kNonBranch, false, 0));
    t.push(make(0x104, 4, InstKind::kCondBranch, true, 0x100));
    t.push(make(0x100, 4, InstKind::kNonBranch, false, 0));
    t.push(make(0x104, 4, InstKind::kCondBranch, false, 0));
    t.push(make(0x108, 4, InstKind::kCondBranch, false, 0));

    const TraceStats s = computeStats(t);
    EXPECT_EQ(s.instructions, 5u);
    EXPECT_EQ(s.branches, 3u);
    EXPECT_EQ(s.takenBranches, 1u);
    EXPECT_EQ(s.uniqueBranchIas, 2u); // 0x104 and 0x108
    EXPECT_EQ(s.uniqueTakenIas, 1u);  // only 0x104 was ever taken
    EXPECT_EQ(s.unique4kBlocks, 1u);
    EXPECT_DOUBLE_EQ(s.branchFraction(), 3.0 / 5.0);
}

TEST(TraceStats, CodeBytesCountUniqueInstructionsOnly)
{
    Trace t;
    t.push(make(0x100, 6, InstKind::kNonBranch, false, 0));
    t.push(make(0x106, 2, InstKind::kUncondBranch, true, 0x100));
    t.push(make(0x100, 6, InstKind::kNonBranch, false, 0));
    const TraceStats s = computeStats(t);
    EXPECT_EQ(s.codeBytes, 8u); // 6 + 2, the re-execution not recounted
    EXPECT_NEAR(s.avgInstLength, (6 + 2 + 6) / 3.0, 1e-9);
}

TEST(TraceStats, BlocksSpanPages)
{
    Trace t;
    t.push(make(0x0FFC, 4, InstKind::kNonBranch, false, 0));
    t.push(make(0x1000, 4, InstKind::kNonBranch, false, 0));
    t.push(make(0x1004, 4, InstKind::kUncondBranch, true, 0x3000));
    t.push(make(0x3000, 4, InstKind::kNonBranch, false, 0));
    const TraceStats s = computeStats(t);
    EXPECT_EQ(s.unique4kBlocks, 3u);
}

} // namespace
} // namespace zbp::trace
