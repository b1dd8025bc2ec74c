/**
 * @file
 * Tests for the trace container and its control-flow consistency check.
 */

#include <gtest/gtest.h>

#include "zbp/trace/trace.hh"

namespace zbp::trace
{
namespace
{

Instruction
plain(Addr ia, std::uint8_t len = 4)
{
    Instruction i;
    i.ia = ia;
    i.length = len;
    return i;
}

Instruction
takenBranch(Addr ia, Addr target, std::uint8_t len = 4)
{
    Instruction i;
    i.ia = ia;
    i.length = len;
    i.kind = InstKind::kUncondBranch;
    i.taken = true;
    i.setTarget(target);
    return i;
}

TEST(Trace, EmptyIsConsistent)
{
    Trace t("empty");
    EXPECT_TRUE(t.consistent());
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.name(), "empty");
}

TEST(Trace, SequentialIsConsistent)
{
    Trace t;
    t.push(plain(0x100, 4));
    t.push(plain(0x104, 2));
    t.push(plain(0x106, 6));
    EXPECT_TRUE(t.consistent());
    EXPECT_EQ(t.size(), 3u);
}

TEST(Trace, TakenBranchRedirects)
{
    Trace t;
    t.push(plain(0x100));
    t.push(takenBranch(0x104, 0x200));
    t.push(plain(0x200));
    EXPECT_TRUE(t.consistent());
}

TEST(Trace, GapIsDetected)
{
    Trace t;
    t.push(plain(0x100));
    t.push(plain(0x108)); // hole: previous ends at 0x104
    EXPECT_FALSE(t.consistent());
    EXPECT_EQ(t.firstDiscontinuity(), 1u);
}

TEST(Trace, NotTakenBranchMustFallThrough)
{
    Trace t;
    Instruction br;
    br.ia = 0x100;
    br.length = 4;
    br.kind = InstKind::kCondBranch;
    br.taken = false;
    t.push(br);
    t.push(plain(0x200)); // should be 0x104
    EXPECT_FALSE(t.consistent());
}

TEST(Trace, IterationAndIndexing)
{
    Trace t;
    t.push(plain(0x10, 2));
    t.push(plain(0x12, 2));
    std::size_t n = 0;
    for (const auto &i : t) {
        EXPECT_EQ(i.length, 2);
        ++n;
    }
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(t[1].ia, 0x12u);
}

} // namespace
} // namespace zbp::trace
