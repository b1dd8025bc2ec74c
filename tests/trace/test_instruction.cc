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
    i.setTarget(0x2000);
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
    EXPECT_EQ(sizeof(Instruction), 16u);
}

TEST(Instruction, OneOperandReadByKind)
{
    // Every kind, with an operand and without, under every length and
    // direction (they share the operand's word): a non-branch reads it
    // only as a data address, a branch only as a target.
    const InstKind kinds[] = {InstKind::kNonBranch, InstKind::kCondBranch,
                              InstKind::kUncondBranch, InstKind::kCall,
                              InstKind::kReturn, InstKind::kIndirect};
    const Addr largest = Instruction::kNoOperand - 1;
    for (const InstKind k : kinds) {
        for (const Addr op : {Addr{0}, Addr{0x8000}, largest, kNoAddr}) {
            for (const std::uint8_t len : {2, 4, 6}) {
                for (const bool taken : {false, true}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "kind " << static_cast<int>(k) << " op "
                                 << op << " len " << int{len} << " taken "
                                 << taken);
                    Instruction i;
                    i.kind = k;
                    i.length = len;
                    i.taken = taken;
                    if (isBranch(k)) {
                        i.setTarget(op);
                        EXPECT_EQ(i.target(), op);
                        EXPECT_EQ(i.dataAddr(), kNoAddr);
                    } else {
                        i.setDataAddr(op);
                        EXPECT_EQ(i.dataAddr(), op);
                        EXPECT_EQ(i.target(), kNoAddr);
                    }
                }
            }
        }
    }
}

TEST(Instruction, OperandOfTheWrongKindDies)
{
    Instruction br;
    br.kind = InstKind::kCall;
    EXPECT_DEATH(br.setDataAddr(0x100), "data address on a branch");
    Instruction plain;
    EXPECT_DEATH(plain.setTarget(0x100), "target on a non-branch");
}

TEST(Instruction, OperandBeyond56BitsDies)
{
    Instruction plain;
    plain.setDataAddr((Addr{1} << 56) - 2); // the largest operand
    EXPECT_EQ(plain.dataAddr(), (Addr{1} << 56) - 2);
    EXPECT_DEATH(plain.setDataAddr((Addr{1} << 56) - 1),
                 "does not fit in 56 bits");
    EXPECT_DEATH(plain.setDataAddr(Addr{1} << 60),
                 "does not fit in 56 bits");
}

} // namespace
} // namespace zbp::trace
