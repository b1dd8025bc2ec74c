/**
 * @file
 * Tests for the shared-BTB2 bank arbiter: bank mapping, the
 * single-core zero-wait invariant the N=1 CMP equivalence rests on,
 * FCFS conflict accounting, queue-full rejection with a retry hint,
 * and TDM slot ownership.
 */

#include <gtest/gtest.h>

#include "zbp/preload/btb2_arbiter.hh"

namespace zbp::preload
{
namespace
{

constexpr std::uint32_t kRowBytes = 64;

Btb2Arbiter
makeArb(unsigned cores, unsigned banks, unsigned depth = 8,
        ArbPolicy pol = ArbPolicy::kFcfs)
{
    return Btb2Arbiter({cores, banks, depth, pol}, kRowBytes);
}

TEST(Btb2Arbiter, BankOfUsesLowRowIndexBits)
{
    auto arb = makeArb(1, 4);
    EXPECT_EQ(arb.bankOf(0), 0u);
    EXPECT_EQ(arb.bankOf(kRowBytes - 1), 0u); // same row, same bank
    EXPECT_EQ(arb.bankOf(kRowBytes), 1u);
    EXPECT_EQ(arb.bankOf(2 * kRowBytes), 2u);
    EXPECT_EQ(arb.bankOf(4 * kRowBytes), 0u); // wraps at bank count
}

TEST(Btb2Arbiter, SpacedSingleCoreReadsNeverWait)
{
    // The N=1 CMP equivalence invariant: an engine whose reads are at
    // least one cycle apart is granted at `now` with zero wait, making
    // the arbiter observationally absent.
    auto arb = makeArb(1, 1);
    for (Cycle now = 10; now < 30; ++now) {
        const auto g = arb.requestRead(0, 0, now);
        ASSERT_TRUE(g.granted);
        EXPECT_EQ(g.at, now);
    }
    EXPECT_EQ(arb.conflicts(), 0u);
    EXPECT_EQ(arb.conflictWaitCycles(), 0u);
    EXPECT_EQ(arb.queueFullRejects(), 0u);
    EXPECT_EQ(arb.grants(), 20u);
}

TEST(Btb2Arbiter, SameCycleSameBankQueuesFcfs)
{
    auto arb = makeArb(2, 1);
    const auto first = arb.requestRead(0, 0, 100);
    const auto second = arb.requestRead(1, 0, 100);
    ASSERT_TRUE(first.granted);
    ASSERT_TRUE(second.granted);
    EXPECT_EQ(first.at, 100u);
    EXPECT_EQ(second.at, 101u); // next free slot of the busy bank
    EXPECT_EQ(arb.conflicts(), 1u);
    EXPECT_EQ(arb.conflictWaitCycles(), 1u);
    EXPECT_EQ(arb.coreWaitCycles()[0], 0u);
    EXPECT_EQ(arb.coreWaitCycles()[1], 1u);
}

TEST(Btb2Arbiter, DistinctBanksDoNotConflict)
{
    auto arb = makeArb(2, 4);
    const auto a = arb.requestRead(0, 0 * kRowBytes, 100);
    const auto b = arb.requestRead(1, 1 * kRowBytes, 100);
    ASSERT_TRUE(a.granted);
    ASSERT_TRUE(b.granted);
    EXPECT_EQ(a.at, 100u);
    EXPECT_EQ(b.at, 100u);
    EXPECT_EQ(arb.conflicts(), 0u);
    EXPECT_EQ(arb.bankGrants()[0], 1u);
    EXPECT_EQ(arb.bankGrants()[1], 1u);
}

TEST(Btb2Arbiter, BacklogOverQueueDepthRejectsWithRetryHint)
{
    auto arb = makeArb(4, 1, /*depth=*/2);
    // Three same-cycle grants build waits 0, 1, 2 (== depth, still
    // queued); the fourth would wait 3 and is rejected.
    for (unsigned c = 0; c < 3; ++c)
        ASSERT_TRUE(arb.requestRead(c, 0, 100).granted);
    const auto g = arb.requestRead(3, 0, 100);
    EXPECT_FALSE(g.granted);
    EXPECT_GT(g.retryAt, 100u); // re-request later, never dropped
    EXPECT_EQ(arb.queueFullRejects(), 1u);
    EXPECT_EQ(arb.grants(), 3u);
    EXPECT_EQ(arb.requests(), 4u);
}

TEST(Btb2Arbiter, TdmGrantsOnlyOwnedSlots)
{
    auto arb = makeArb(2, 1, 8, ArbPolicy::kTdm);
    // Core 0 owns even slots: a request at odd `now` slides forward.
    const auto even = arb.requestRead(0, 0, 100);
    ASSERT_TRUE(even.granted);
    EXPECT_EQ(even.at, 100u);
    EXPECT_EQ(even.at % 2, 0u);
    const auto odd = arb.requestRead(1, 0, 102);
    ASSERT_TRUE(odd.granted);
    EXPECT_EQ(odd.at, 103u); // next slot with slot % 2 == 1
    EXPECT_EQ(odd.at % 2, 1u);
}

TEST(Btb2Arbiter, TdmSlotAlignmentIsNotAConflict)
{
    auto arb = makeArb(2, 1, 8, ArbPolicy::kTdm);
    // Core 1 owns the odd slots: on an idle bank at an even `now` its
    // read waits one cycle for its own slot, which is no conflict.
    const auto g = arb.requestRead(1, 0, 100);
    ASSERT_TRUE(g.granted);
    EXPECT_EQ(g.at, 101u);
    EXPECT_EQ(arb.conflicts(), 0u);
    EXPECT_EQ(arb.conflictWaitCycles(), 0u);
    EXPECT_EQ(arb.coreWaitCycles()[1], 0u);
    // The bank is busy until 102: the next read is a conflict, and its
    // whole wait (busy bank plus alignment) is booked.
    const auto busy = arb.requestRead(1, 0, 101);
    ASSERT_TRUE(busy.granted);
    EXPECT_EQ(busy.at, 103u);
    EXPECT_EQ(arb.conflicts(), 1u);
    EXPECT_EQ(arb.conflictWaitCycles(), 2u);
}

TEST(Btb2Arbiter, ResetClearsReservationsAndCounters)
{
    auto arb = makeArb(2, 1);
    arb.requestRead(0, 0, 100);
    arb.requestRead(1, 0, 100);
    ASSERT_GT(arb.conflicts(), 0u);

    arb.reset();
    EXPECT_EQ(arb.requests(), 0u);
    EXPECT_EQ(arb.grants(), 0u);
    EXPECT_EQ(arb.conflicts(), 0u);
    EXPECT_EQ(arb.coreGrants()[0], 0u);
    EXPECT_EQ(arb.bankGrants()[0], 0u);
    // The bank reservation from before the reset is gone too.
    const auto g = arb.requestRead(0, 0, 100);
    ASSERT_TRUE(g.granted);
    EXPECT_EQ(g.at, 100u);
}

} // namespace
} // namespace zbp::preload
