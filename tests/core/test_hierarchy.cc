/**
 * @file
 * Tests for the content-movement flows of the branch predictor
 * hierarchy: parallel first-level search, BTBP promotion with victim
 * write-back, surprise installs, PHT/CTB gating and training.
 */

#include <gtest/gtest.h>

#include <set>

#include "zbp/common/rng.hh"
#include "zbp/core/hierarchy.hh"

namespace zbp::core
{
namespace
{

using trace::InstKind;

core::MachineParams
smallParams()
{
    MachineParams p;
    p.btb1 = btb::BtbConfig{8, 2, 32, 40};
    p.btbp = btb::BtbConfig{4, 2, 32, 40};
    p.btb2 = btb::BtbConfig{16, 2, 32, 40};
    return p;
}

TEST(Hierarchy, SearchMergesBothLevelsInAddressOrder)
{
    BranchPredictorHierarchy h(smallParams());
    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xA));
    h.btbp().install(btb::BtbEntry::freshTaken(0x04, 0xB));

    const auto cands = h.searchFirstLevel(0x00);
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_EQ(cands[0].perceivedIa, 0x04u);
    EXPECT_EQ(cands[0].source, PredictionSource::kBtbp);
    EXPECT_EQ(cands[1].perceivedIa, 0x10u);
    EXPECT_EQ(cands[1].source, PredictionSource::kBtb1);
}

TEST(Hierarchy, DuplicateEntryPrefersBtb1)
{
    BranchPredictorHierarchy h(smallParams());
    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xAAAA));
    h.btbp().install(btb::BtbEntry::freshTaken(0x10, 0xBBBB));
    const auto cands = h.searchFirstLevel(0x00);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].source, PredictionSource::kBtb1);
    EXPECT_EQ(cands[0].entry.target, 0xAAAAu);
}

TEST(Hierarchy, SearchHonorsOffset)
{
    BranchPredictorHierarchy h(smallParams());
    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xA));
    EXPECT_EQ(h.searchFirstLevel(0x12).size(), 0u);
    EXPECT_EQ(h.searchFirstLevel(0x10).size(), 1u);
}

TEST(Hierarchy, PredictionFromBtbpPromotesToBtb1)
{
    BranchPredictorHierarchy h(smallParams());
    h.btbp().install(btb::BtbEntry::freshTaken(0x10, 0xA));
    const auto cands = h.searchFirstLevel(0x00);
    ASSERT_EQ(cands.size(), 1u);

    const auto p = h.makePrediction(cands[0], 1);
    EXPECT_TRUE(p.taken);
    EXPECT_EQ(p.target, 0xAu);
    EXPECT_TRUE(h.btb1().lookup(0x10).has_value());
    EXPECT_FALSE(h.btbp().lookup(0x10).has_value());
}

TEST(Hierarchy, Btb1VictimGoesToBtbpAndBtb2)
{
    // Fill a BTB1 row, then promote a BTBP entry into it: the displaced
    // BTB1 entry must appear in both the BTBP and the BTB2 (paper §3.1).
    auto prm = smallParams();
    prm.btb1 = btb::BtbConfig{8, 1, 32, 40}; // 1-way: every install evicts
    BranchPredictorHierarchy h(prm);

    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xAA));
    h.btbp().install(btb::BtbEntry::freshTaken(0x110, 0xBB)); // same row

    const auto cands = h.searchFirstLevel(0x100);
    ASSERT_EQ(cands.size(), 1u);
    (void)h.makePrediction(cands[0], 1);

    EXPECT_TRUE(h.btb1().lookup(0x110).has_value());
    EXPECT_TRUE(h.btbp().lookup(0x10).has_value());
    EXPECT_TRUE(h.btb2().lookup(0x10).has_value());
}

TEST(Hierarchy, VictimNotWrittenToDisabledBtb2)
{
    auto prm = smallParams();
    prm.btb1 = btb::BtbConfig{8, 1, 32, 40};
    prm.btb2Enabled = false;
    BranchPredictorHierarchy h(prm);
    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xAA));
    h.btbp().install(btb::BtbEntry::freshTaken(0x110, 0xBB));
    const auto cands = h.searchFirstLevel(0x100);
    (void)h.makePrediction(cands[0], 1);
    EXPECT_FALSE(h.btb2().lookup(0x10).has_value());
}

TEST(Hierarchy, SurpriseInstallWritesBtbpAndBtb2)
{
    BranchPredictorHierarchy h(smallParams());
    h.resolveSurprise(0x40, InstKind::kCondBranch, true, 0x80, 100);
    EXPECT_TRUE(h.btbp().lookup(0x40).has_value());
    EXPECT_TRUE(h.btb2().lookup(0x40).has_value());
    EXPECT_FALSE(h.btb1().lookup(0x40).has_value());
    ASSERT_TRUE(h.lastInstall(0x40).has_value());
    EXPECT_EQ(*h.lastInstall(0x40), 100u);
}

TEST(Hierarchy, NotTakenSurpriseNotInstalled)
{
    // Only ever-taken branches get installed.
    BranchPredictorHierarchy h(smallParams());
    h.resolveSurprise(0x40, InstKind::kCondBranch, false, kNoAddr, 100);
    EXPECT_FALSE(h.btbp().lookup(0x40).has_value());
    EXPECT_FALSE(h.btb2().lookup(0x40).has_value());
}

TEST(Hierarchy, SurpriseOnPresentEntryTrainsInPlace)
{
    BranchPredictorHierarchy h(smallParams());
    h.btbp().install(btb::BtbEntry::freshTaken(0x40, 0x80)); // weak taken
    h.resolveSurprise(0x40, InstKind::kCondBranch, true, 0x80, 100);
    const auto e = h.btbp().lookup(0x40);
    ASSERT_TRUE(e.has_value());
    EXPECT_TRUE(e->entry.dir.strong()); // trained up
}

TEST(Hierarchy, PreloadInstallsIntoBtbp)
{
    BranchPredictorHierarchy h(smallParams());
    h.preload(0x60, 0x90);
    EXPECT_TRUE(h.btbp().lookup(0x60).has_value());
    EXPECT_FALSE(h.btb2().lookup(0x60).has_value());
}

TEST(Hierarchy, PredictionUsesBimodalDirection)
{
    BranchPredictorHierarchy h(smallParams());
    auto e = btb::BtbEntry::freshTaken(0x10, 0xA);
    e.dir.set(Bimodal2::kWeakNotTaken);
    h.btb1().install(e);
    const auto cands = h.searchFirstLevel(0x00);
    const auto p = h.makePrediction(cands[0], 1);
    EXPECT_FALSE(p.taken);
    EXPECT_EQ(p.target, kNoAddr);
}

TEST(Hierarchy, MispredictGatesPhtOn)
{
    BranchPredictorHierarchy h(smallParams());
    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xA));
    auto cands = h.searchFirstLevel(0x00);
    const auto p = h.makePrediction(cands[0], 1);
    ASSERT_TRUE(p.taken);

    // Resolve not-taken: bimodal was wrong -> PHT allocated and gated.
    h.resolvePredicted(p, InstKind::kCondBranch, false, kNoAddr, 50);
    const auto e = h.btb1().lookup(0x10);
    ASSERT_TRUE(e.has_value());
    EXPECT_TRUE(e->entry.phtAllowed);
}

TEST(Hierarchy, PhtOverridesGatedDirection)
{
    BranchPredictorHierarchy h(smallParams());
    auto e = btb::BtbEntry::freshTaken(0x10, 0xA);
    e.phtAllowed = true;
    e.dir.set(3); // strong taken
    h.btb1().install(e);

    // Train the PHT toward not-taken for the current (empty) history.
    h.pht().update(0x10, h.specHistory(), false, true);

    const auto cands = h.searchFirstLevel(0x00);
    const auto p = h.makePrediction(cands[0], 1);
    EXPECT_FALSE(p.taken);
    EXPECT_TRUE(p.usedPht);
}

TEST(Hierarchy, TargetChangeGatesCtbOn)
{
    BranchPredictorHierarchy h(smallParams());
    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xAAAA));
    auto cands = h.searchFirstLevel(0x00);
    const auto p = h.makePrediction(cands[0], 1);

    h.resolvePredicted(p, InstKind::kReturn, true, 0xBBBB, 50);
    const auto e = h.btb1().lookup(0x10);
    ASSERT_TRUE(e.has_value());
    EXPECT_TRUE(e->entry.ctbAllowed);
    EXPECT_EQ(e->entry.target, 0xBBBBu);
}

TEST(Hierarchy, CtbOverridesGatedTarget)
{
    BranchPredictorHierarchy h(smallParams());
    auto e = btb::BtbEntry::freshTaken(0x10, 0xAAAA);
    e.ctbAllowed = true;
    h.btb1().install(e);
    h.ctb().update(0x10, h.specHistory(), 0xCCCC);

    const auto cands = h.searchFirstLevel(0x00);
    const auto p = h.makePrediction(cands[0], 1);
    ASSERT_TRUE(p.taken);
    EXPECT_EQ(p.target, 0xCCCCu);
    EXPECT_TRUE(p.usedCtb);
}

TEST(Hierarchy, SpeculativeHistoryAdvancesOnPrediction)
{
    BranchPredictorHierarchy h(smallParams());
    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xA));
    const auto before = h.specHistory().directionBits();
    const auto cands = h.searchFirstLevel(0x00);
    (void)h.makePrediction(cands[0], 1);
    EXPECT_NE(h.specHistory().directionBits(), before);
}

TEST(Hierarchy, RestartResynchronizesSpeculation)
{
    BranchPredictorHierarchy h(smallParams());
    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xA));
    const auto cands = h.searchFirstLevel(0x00);
    (void)h.makePrediction(cands[0], 1); // speculative push
    h.archHistory().push(0x10, false);   // architectural truth
    h.restartSpeculation();
    EXPECT_EQ(h.specHistory().directionBits(),
              h.archHistory().directionBits());
}

TEST(Hierarchy, ResolveTrainsBimodal)
{
    BranchPredictorHierarchy h(smallParams());
    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xA)); // weak taken
    const auto cands = h.searchFirstLevel(0x00);
    const auto p = h.makePrediction(cands[0], 1);
    h.resolvePredicted(p, InstKind::kCondBranch, true, 0xA, 10);
    EXPECT_TRUE(h.btb1().lookup(0x10)->entry.dir.strong());
}

TEST(Hierarchy, ResetWipesEverything)
{
    BranchPredictorHierarchy h(smallParams());
    h.btb1().install(btb::BtbEntry::freshTaken(0x10, 0xA));
    h.resolveSurprise(0x40, InstKind::kCall, true, 0x80, 5);
    h.reset();
    EXPECT_EQ(h.btb1().validCount(), 0u);
    EXPECT_EQ(h.btbp().validCount(), 0u);
    EXPECT_EQ(h.btb2().validCount(), 0u);
    EXPECT_FALSE(h.lastInstall(0x40).has_value());
}

TEST(Hierarchy, PromotionEarlierInSearchInvalidatesCarriedSlot)
{
    // One 2-way BTB1 row: 0x10 is LRU, 0x18 MRU.  A search at 0x00
    // yields [0x04 (BTBP), 0x10, 0x18]; promoting 0x04 evicts 0x10's
    // slot, so 0x10's prediction must not train the slot it was found
    // in, which now holds 0x04.
    BranchPredictorHierarchy h(smallParams());
    auto strong = btb::BtbEntry::freshTaken(0x10, 0xA);
    strong.dir.update(true);
    ASSERT_TRUE(strong.dir.strong());
    h.btb1().install(strong);
    h.btb1().install(btb::BtbEntry::freshTaken(0x18, 0xB));
    h.btbp().install(btb::BtbEntry::freshTaken(0x04, 0xC));
    const auto cands = h.searchFirstLevel(0x00);
    ASSERT_EQ(cands.size(), 3u);
    ASSERT_EQ(cands[1].perceivedIa, 0x10u);

    h.makePrediction(cands[0], 1);
    const auto promoted = h.btb1().lookup(0x04);
    ASSERT_TRUE(promoted.has_value());
    EXPECT_EQ(promoted->row, cands[1].row);
    EXPECT_EQ(promoted->way, cands[1].way);
    EXPECT_FALSE(h.btb1().lookup(0x10).has_value());

    h.makePrediction(cands[1], 2);
    EXPECT_FALSE(h.btb1().lookup(0x04)->entry.dir.strong());
}

TEST(BranchPredictorHierarchy, ExactProbeMatchesFirstLevelScan)
{
    // Few tag bits and rows, so tags alias; the fill adds duplicate
    // ways (same tag, same offset) and branches held in both levels.
    MachineParams prm;
    prm.btb1 = btb::BtbConfig{8, 4, 32, 3};
    prm.btbp = btb::BtbConfig{4, 3, 32, 3};
    prm.btb2 = btb::BtbConfig{16, 2, 32, 3};
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        BranchPredictorHierarchy h(prm);
        Rng rng(seed);
        std::set<Addr> rows;
        const auto randomEntry = [&rng, &rows] {
            const Addr ia = 2 * rng.below(2048);
            rows.insert(alignDown(ia, 32));
            auto e = btb::BtbEntry::freshTaken(ia, 0x10000 + rng.below(64));
            if (rng.below(2) != 0)
                e.dir.update(false);
            return e;
        };
        for (int i = 0; i < 40; ++i) {
            const auto e = randomEntry();
            switch (rng.below(4)) {
              case 0:
                h.btb1().install(e);
                break;
              case 1:
                h.btbp().install(e);
                break;
              case 2:
                // The same branch in both levels.
                h.btb1().install(e);
                h.btbp().install(e);
                break;
              default: {
                // Two ways holding the same tag at the same offset.
                auto &t = rng.below(2) != 0 ? h.btb1() : h.btbp();
                const std::uint32_t row = t.rowOf(e.ia);
                const std::uint32_t ways = t.config().ways;
                const std::uint32_t w = rng.below(ways - 1);
                auto twin = e;
                twin.target ^= 0x4;
                t.update(row, w, e);
                t.update(row, w + 1 + rng.below(ways - 1 - w), twin);
                break;
              }
            }
        }
        for (const Addr base : rows) {
            for (Addr ia = base; ia < base + 32; ++ia) {
                const Candidate *scan = nullptr;
                const auto cands = h.searchFirstLevel(ia);
                for (const auto &c : cands)
                    if (c.perceivedIa == ia)
                        scan = &c;
                const auto probe = h.probeFirstLevel(ia);
                ASSERT_EQ(probe.has_value(), scan != nullptr)
                        << "seed " << seed << " ia 0x" << std::hex << ia;
                if (scan == nullptr)
                    continue;
                EXPECT_EQ(probe->source, scan->source);
                EXPECT_EQ(probe->entry.ia, scan->entry.ia);
                EXPECT_EQ(probe->entry.target, scan->entry.target);
                EXPECT_EQ(probe->entry.dir.raw(), scan->entry.dir.raw());
                EXPECT_EQ(probe->entry.phtAllowed, scan->entry.phtAllowed);
                EXPECT_EQ(probe->entry.ctbAllowed, scan->entry.ctbAllowed);
                EXPECT_EQ(probe->perceivedIa, ia);
                EXPECT_EQ(probe->inMruWay, scan->inMruWay);
                EXPECT_EQ(probe->row, scan->row);
                EXPECT_EQ(probe->way, scan->way);
            }
        }
    }
}

} // namespace
} // namespace zbp::core
