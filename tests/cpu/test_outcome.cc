/**
 * @file
 * Tests for the Figure 4 outcome taxonomy bookkeeping.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "zbp/common/rng.hh"
#include "zbp/cpu/outcome.hh"

namespace zbp::cpu
{
namespace
{

TEST(Outcome, BadClassification)
{
    EXPECT_FALSE(isBad(Outcome::kCorrect));
    EXPECT_FALSE(isBad(Outcome::kSurpriseBenign));
    EXPECT_TRUE(isBad(Outcome::kMispredictDir));
    EXPECT_TRUE(isBad(Outcome::kMispredictTarget));
    EXPECT_TRUE(isBad(Outcome::kSurpriseCompulsory));
    EXPECT_TRUE(isBad(Outcome::kSurpriseLatency));
    EXPECT_TRUE(isBad(Outcome::kSurpriseCapacity));
    EXPECT_TRUE(isBad(Outcome::kPhantom));
}

TEST(OutcomeTracker, SeenBefore)
{
    OutcomeTracker t;
    EXPECT_FALSE(t.seenBefore(0x100));
    EXPECT_TRUE(t.seenBefore(0x100));
    EXPECT_FALSE(t.seenBefore(0x104));
}

TEST(OutcomeTracker, CountsAndFractions)
{
    OutcomeTracker t;
    t.record(Outcome::kCorrect);
    t.record(Outcome::kCorrect);
    t.record(Outcome::kMispredictDir);
    t.record(Outcome::kSurpriseCapacity);
    EXPECT_EQ(t.totalBranches(), 4u);
    EXPECT_EQ(t.count(Outcome::kCorrect), 2u);
    EXPECT_EQ(t.badCount(), 2u);
    EXPECT_DOUBLE_EQ(t.badFraction(), 0.5);
    EXPECT_DOUBLE_EQ(t.fraction(Outcome::kMispredictDir), 0.25);
}

TEST(OutcomeTracker, EmptyFractionIsZero)
{
    OutcomeTracker t;
    EXPECT_DOUBLE_EQ(t.badFraction(), 0.0);
    EXPECT_DOUBLE_EQ(t.fraction(Outcome::kCorrect), 0.0);
}

TEST(OutcomeTracker, StatsRegistration)
{
    OutcomeTracker t;
    t.record(Outcome::kSurpriseLatency);
    stats::Group g("o");
    t.registerStats(g);
    EXPECT_DOUBLE_EQ(g.value("surpriseLatency"), 1.0);
    EXPECT_DOUBLE_EQ(g.value("correct"), 0.0);
}

std::vector<std::uint8_t>
bytesOf(const OutcomeTracker &t)
{
    ckpt::Writer w;
    t.saveState(w);
    w.finish();
    return w.bytes();
}

TEST(OutcomeTracker, SeenIndexSurvivesRestore)
{
    OutcomeTracker t;
    std::set<Addr> order; // the checkpoint's element order
    Rng rng(11);
    for (int i = 0; i < 3000; ++i) {
        const Addr ia = 2 * rng.below(2000);
        EXPECT_EQ(t.seenBefore(ia), !order.insert(ia).second);
    }
    const auto bytes = bytesOf(t);

    // The seen addresses are listed in ascending order.
    ckpt::Writer want;
    want.beginSection(ckpt::tag::kOutcomes);
    for (int i = 0; i < 9; ++i)
        want.u64(std::uint64_t{0});
    want.count64(order.size());
    for (const Addr a : order)
        want.u64(a);
    want.endSection();
    want.finish();
    EXPECT_EQ(bytes, want.bytes());

    OutcomeTracker r;
    ckpt::SnapshotBuffer snap(bytes);
    ckpt::Reader rd = snap.reader();
    r.restoreState(rd);
    rd.finish();
    EXPECT_EQ(bytesOf(r), bytes);
    for (const Addr ia : order)
        EXPECT_TRUE(r.seenBefore(ia)) << ia;
    EXPECT_FALSE(r.seenBefore(1));
    EXPECT_TRUE(r.seenBefore(1));

    // The restored tracker goes on exactly like the one it came from:
    // same answers, and the same bytes after more first sightings.
    EXPECT_FALSE(t.seenBefore(1));
    for (int i = 0; i < 3000; ++i) {
        const Addr ia = 2 * rng.below(4000) + 1;
        ASSERT_EQ(r.seenBefore(ia), t.seenBefore(ia)) << "step " << i;
    }
    EXPECT_EQ(bytesOf(r), bytesOf(t));
}

} // namespace
} // namespace zbp::cpu
