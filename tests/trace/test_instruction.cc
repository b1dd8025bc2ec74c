/**
 * @file
 * Tests for the dynamic instruction record.
 */

#include <gtest/gtest.h>

#include "zbp/trace/instruction.hh"

namespace zbp::trace
{
namespace
{

TEST(Instruction, DefaultsAreNonBranch)
{
    Instruction i;
    EXPECT_FALSE(i.branch());
    EXPECT_FALSE(i.taken);
    EXPECT_EQ(i.length, 4);
}

TEST(Instruction, FallThroughAndNextIa)
{
    Instruction i;
    i.ia = 0x100;
    i.length = 6;
    EXPECT_EQ(i.fallThrough(), 0x106u);
    EXPECT_EQ(i.nextIa(), 0x106u);

    i.kind = InstKind::kCondBranch;
    i.taken = false;
    EXPECT_EQ(i.nextIa(), 0x106u);

    i.taken = true;
    i.target = 0x2000;
    EXPECT_EQ(i.nextIa(), 0x2000u);
}

TEST(Instruction, BranchPredicate)
{
    EXPECT_FALSE(isBranch(InstKind::kNonBranch));
    EXPECT_TRUE(isBranch(InstKind::kCondBranch));
    EXPECT_TRUE(isBranch(InstKind::kUncondBranch));
    EXPECT_TRUE(isBranch(InstKind::kCall));
    EXPECT_TRUE(isBranch(InstKind::kReturn));
    EXPECT_TRUE(isBranch(InstKind::kIndirect));
}

TEST(Instruction, StaticGuessRules)
{
    // Opcode-based static guessing: unconditional kinds guess taken.
    EXPECT_FALSE(staticGuessTaken(InstKind::kNonBranch));
    EXPECT_FALSE(staticGuessTaken(InstKind::kCondBranch));
    EXPECT_TRUE(staticGuessTaken(InstKind::kUncondBranch));
    EXPECT_TRUE(staticGuessTaken(InstKind::kCall));
    EXPECT_TRUE(staticGuessTaken(InstKind::kReturn));
    EXPECT_FALSE(staticGuessTaken(InstKind::kIndirect));
}

TEST(Instruction, DirectBranchPredicate)
{
    // Relative branches carry their target in the instruction text.
    EXPECT_FALSE(isDirectBranch(InstKind::kNonBranch));
    EXPECT_TRUE(isDirectBranch(InstKind::kCondBranch));
    EXPECT_TRUE(isDirectBranch(InstKind::kUncondBranch));
    EXPECT_TRUE(isDirectBranch(InstKind::kCall));
    EXPECT_FALSE(isDirectBranch(InstKind::kReturn));
    EXPECT_FALSE(isDirectBranch(InstKind::kIndirect));
}

TEST(Instruction, Equality)
{
    Instruction a, b;
    a.ia = b.ia = 0x10;
    EXPECT_EQ(a, b);
    b.length = 2;
    EXPECT_FALSE(a == b);
}

TEST(Instruction, RecordIsCompact)
{
    // Multi-million instruction traces must stay memory-friendly.
    EXPECT_LE(sizeof(Instruction), 32u);
}

} // namespace
} // namespace zbp::trace
