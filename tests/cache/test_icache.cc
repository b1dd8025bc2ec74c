/**
 * @file
 * Tests for the L1 I-cache model and its per-4KB-block miss recording
 * (the BTB2 transfer filter input).
 */

#include <gtest/gtest.h>

#include "zbp/cache/icache.hh"

namespace zbp::cache
{
namespace
{

ICacheParams
tinyParams()
{
    ICacheParams p;
    p.sizeBytes = 4 * 1024;
    p.ways = 2;
    p.lineBytes = 256;
    return p; // 8 sets x 2 ways
}

TEST(ICache, MissThenHit)
{
    ICache c(tinyParams());
    EXPECT_FALSE(c.access(0x1000, 1));
    EXPECT_TRUE(c.access(0x1000, 2));
    EXPECT_TRUE(c.access(0x10FF, 3)); // same 256 B line
    EXPECT_FALSE(c.access(0x1100, 4)); // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(ICache, ProbeDoesNotInstall)
{
    ICache c(tinyParams());
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_FALSE(c.access(0x2000, 1));
    EXPECT_TRUE(c.probe(0x2000));
}

TEST(ICache, LruEvictionWithinSet)
{
    ICache c(tinyParams());
    // Three lines mapping to the same set (stride = sets * line = 2 KB).
    c.access(0x0000, 1);
    c.access(0x0800, 2);
    EXPECT_TRUE(c.probe(0x0000));
    c.access(0x1000, 3); // evicts LRU = 0x0000
    EXPECT_FALSE(c.probe(0x0000));
    EXPECT_TRUE(c.probe(0x0800));
    EXPECT_TRUE(c.probe(0x1000));
}

TEST(ICache, TouchRefreshesLru)
{
    ICache c(tinyParams());
    c.access(0x0000, 1);
    c.access(0x0800, 2);
    c.access(0x0000, 3); // refresh
    c.access(0x1000, 4); // evicts 0x0800 now
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0800));
}

TEST(ICache, BlockMissRecording)
{
    ICacheParams p = tinyParams();
    p.missRecordTtl = 100;
    ICache c(p);
    c.access(0x3000, 50); // miss in block 3
    EXPECT_TRUE(c.blockMissedRecently(0x3ABC, 60));  // same 4 KB block
    EXPECT_FALSE(c.blockMissedRecently(0x4000, 60)); // different block
    EXPECT_TRUE(c.blockMissedRecently(0x3000, 150)); // within TTL
    EXPECT_FALSE(c.blockMissedRecently(0x3000, 151)); // expired
}

TEST(ICache, HitsDoNotRecordBlockMiss)
{
    ICache c(tinyParams());
    c.access(0x5000, 1);
    c.access(0x5000, 2); // hit
    // First access recorded at t=1; a fresh block shows nothing.
    EXPECT_FALSE(c.blockMissedRecently(0x6000, 3));
    EXPECT_TRUE(c.blockMissedRecently(0x5000, 3));
}

TEST(ICache, LookupInstallsButRecordsNoBlockMiss)
{
    ICache c(tinyParams());
    EXPECT_FALSE(c.lookup(0x7000));
    EXPECT_TRUE(c.probe(0x7000));
    EXPECT_TRUE(c.lookup(0x7000));
    EXPECT_FALSE(c.blockMissedRecently(0x7000, 0));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(ICache, Zec12GeometryAccepted)
{
    // 64 KB, 4-way, 256 B lines (Table 5) = 64 sets.
    ICacheParams p;
    ICache c(p);
    EXPECT_EQ(c.params().sizeBytes, 64u * 1024u);
    // Lines 64 * 256 apart collide in one set.
    c.access(0x0, 1);
    c.access(0x4000, 2);
    c.access(0x8000, 3);
    c.access(0xC000, 4);
    EXPECT_TRUE(c.probe(0x0));
    c.access(0x10000, 5); // 5th way evicts LRU
    EXPECT_FALSE(c.probe(0x0));
}

TEST(ICacheDeathTest, BadGeometryRejected)
{
    ICacheParams p;
    p.lineBytes = 100; // not a power of two
    EXPECT_DEATH(ICache c(p), "pow2");
}

} // namespace
} // namespace zbp::cache
