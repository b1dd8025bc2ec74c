/**
 * @file
 * Tests for the Fast Index Table.
 */

#include <gtest/gtest.h>

#include <vector>

#include "zbp/common/rng.hh"
#include "zbp/core/fit.hh"

namespace zbp::core
{
namespace
{

TEST(Fit, MissWhenEmpty)
{
    FastIndexTable f(4);
    EXPECT_FALSE(f.hit(0x100, 0x200));
}

TEST(Fit, LearnThenHit)
{
    FastIndexTable f(4);
    f.learn(0x100, 0x200);
    EXPECT_TRUE(f.hit(0x100, 0x200));
}

TEST(Fit, StaleTargetDoesNotAccelerate)
{
    // A FIT entry only helps when the remembered index still matches
    // the prediction actually made (e.g. CTB overrides break it).
    FastIndexTable f(4);
    f.learn(0x100, 0x200);
    EXPECT_FALSE(f.hit(0x100, 0x300));
}

TEST(Fit, LearnRefreshesTarget)
{
    FastIndexTable f(4);
    f.learn(0x100, 0x200);
    f.learn(0x100, 0x300);
    EXPECT_TRUE(f.hit(0x100, 0x300));
    EXPECT_FALSE(f.hit(0x100, 0x200));
    EXPECT_EQ(f.size(), 1u);
}

TEST(Fit, LruEvictionAtCapacity)
{
    FastIndexTable f(2);
    f.learn(0x100, 0xA);
    f.learn(0x200, 0xB);
    f.learn(0x300, 0xC); // evicts 0x100
    EXPECT_FALSE(f.hit(0x100, 0xA));
    EXPECT_TRUE(f.hit(0x200, 0xB));
    EXPECT_TRUE(f.hit(0x300, 0xC));
}

TEST(Fit, HitPromotesToMru)
{
    FastIndexTable f(2);
    f.learn(0x100, 0xA);
    f.learn(0x200, 0xB);
    EXPECT_TRUE(f.hit(0x100, 0xA)); // promote
    f.learn(0x300, 0xC);            // evicts 0x200 now
    EXPECT_TRUE(f.hit(0x100, 0xA));
    EXPECT_FALSE(f.hit(0x200, 0xB));
}

TEST(Fit, ZeroCapacityNeverStores)
{
    FastIndexTable f(0);
    f.learn(0x100, 0xA);
    EXPECT_FALSE(f.hit(0x100, 0xA));
    EXPECT_EQ(f.size(), 0u);
}

TEST(Fit, ResetForgets)
{
    FastIndexTable f(4);
    f.learn(0x100, 0xA);
    f.reset();
    EXPECT_FALSE(f.hit(0x100, 0xA));
}

TEST(Fit, DefaultCapacityMatchesPaper)
{
    FastIndexTable f; // "a 64 branch Fast Index Table"
    for (Addr ia = 0; ia < 70 * 8; ia += 8)
        f.learn(ia, ia + 4);
    EXPECT_EQ(f.size(), 64u);
}

std::vector<std::uint8_t>
bytesOf(const FastIndexTable &f)
{
    ckpt::Writer w;
    f.saveState(w);
    w.finish();
    return w.bytes();
}

TEST(Fit, HitThenLearnEqualsHitThenLearnCalls)
{
    // 12 branches and 3 targets each over an 8-entry table: hits,
    // stale-target mismatches, refreshes and LRU evictions all occur.
    FastIndexTable fused(8);
    FastIndexTable pair(8);
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        const Addr ia = 0x1000 + 8 * rng.below(12);
        const Addr target = ia + 0x100 * (1 + rng.below(3));
        const bool want = pair.hit(ia, target);
        pair.learn(ia, target);
        ASSERT_EQ(fused.hitThenLearn(ia, target), want) << "step " << i;
    }
    EXPECT_EQ(fused.size(), 8u);
    EXPECT_EQ(bytesOf(fused), bytesOf(pair));
}

} // namespace
} // namespace zbp::core
