/**
 * @file
 * Tests for the true-LRU state, including the explicit demote operation
 * the semi-exclusive hierarchy relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "zbp/common/rng.hh"
#include "zbp/util/lru.hh"

namespace zbp
{
namespace
{

TEST(Lru, InitialOrder)
{
    LruState l(4);
    EXPECT_EQ(l.ways(), 4u);
    EXPECT_EQ(l.lru(), 0u);
    EXPECT_EQ(l.mru(), 3u);
}

TEST(Lru, TouchMakesMru)
{
    LruState l(4);
    l.touch(0);
    EXPECT_EQ(l.mru(), 0u);
    EXPECT_EQ(l.lru(), 1u);
    l.touch(2);
    EXPECT_EQ(l.mru(), 2u);
    EXPECT_EQ(l.lru(), 1u);
}

TEST(Lru, DemoteMakesLru)
{
    LruState l(4);
    l.touch(1);
    l.demote(3);
    EXPECT_EQ(l.lru(), 3u);
    EXPECT_EQ(l.mru(), 1u);
}

TEST(Lru, SemiExclusiveScenario)
{
    // Paper §3.3: a BTB2 hit is demoted to LRU so a subsequent BTB1
    // victim install (which replaces the LRU way) overwrites it.
    LruState l(6);
    for (unsigned w = 0; w < 6; ++w)
        l.touch(w);
    l.demote(2); // the hit
    EXPECT_EQ(l.lru(), 2u);
    // The victim install replaces the LRU way and is made MRU.
    l.touch(2);
    EXPECT_EQ(l.mru(), 2u);
    EXPECT_EQ(l.lru(), 0u);
}

TEST(Lru, RankConsistency)
{
    LruState l(4);
    l.touch(0);
    l.touch(1);
    // order now: 2 (LRU), 3, 0, 1 (MRU)
    EXPECT_EQ(l.rank(2), 0u);
    EXPECT_EQ(l.rank(3), 1u);
    EXPECT_EQ(l.rank(0), 2u);
    EXPECT_EQ(l.rank(1), 3u);
}

TEST(Lru, SingleWay)
{
    LruState l(1);
    EXPECT_EQ(l.lru(), 0u);
    EXPECT_EQ(l.mru(), 0u);
    l.touch(0);
    l.demote(0);
    EXPECT_EQ(l.lru(), 0u);
}

TEST(Lru, TouchSequenceGivesFifoVictims)
{
    LruState l(3);
    l.touch(0);
    l.touch(1);
    l.touch(2);
    EXPECT_EQ(l.lru(), 0u);
    l.touch(0);
    EXPECT_EQ(l.lru(), 1u);
}

/** Property: after arbitrary operations, ranks form a permutation and
 * touch/demote postconditions hold. */
class LruProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LruProperty, RandomOpsKeepInvariants)
{
    const unsigned ways = GetParam();
    LruState l(ways);
    Rng rng(ways * 1000 + 7);
    for (int step = 0; step < 500; ++step) {
        const auto w = static_cast<unsigned>(rng.below(ways));
        if (rng.chance(0.5)) {
            l.touch(w);
            ASSERT_EQ(l.mru(), w);
        } else {
            l.demote(w);
            ASSERT_EQ(l.lru(), w);
        }
        // Ranks must be a permutation of 0..ways-1.
        std::vector<bool> seen(ways, false);
        for (unsigned v = 0; v < ways; ++v) {
            const unsigned r = l.rank(v);
            ASSERT_LT(r, ways);
            ASSERT_FALSE(seen[r]);
            seen[r] = true;
        }
    }
}

TEST(Lru, MatchesListModelUpToSixteenWays)
{
    // The packed order against a plain list, at every width including
    // the full 16 nibbles.
    for (const unsigned ways : {1u, 2u, 5u, 8u, 15u, 16u}) {
        LruState l(ways);
        std::vector<unsigned> model; // LRU first
        for (unsigned w = 0; w < ways; ++w)
            model.push_back(w);
        Rng rng(ways);
        for (int step = 0; step < 2000; ++step) {
            const auto w = static_cast<unsigned>(rng.below(ways));
            model.erase(std::find(model.begin(), model.end(), w));
            if (rng.chance(0.5)) {
                l.touch(w);
                model.push_back(w);
            } else {
                l.demote(w);
                model.insert(model.begin(), w);
            }
            for (unsigned r = 0; r < ways; ++r) {
                ASSERT_EQ(l.rank(model[r]), r)
                        << ways << " ways, step " << step;
            }
            ASSERT_EQ(l.lru(), model.front());
            ASSERT_EQ(l.mru(), model.back());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, LruProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

} // namespace
} // namespace zbp
