/**
 * @file
 * SoA search-path tests.  The way-compare kernel must clip its mask to
 * the configured associativity, the row primitives built on it must
 * agree with a brute-force way walk across associativities, and the
 * rowSig prefilter must stay a superset of the stored tags through
 * aliasing and fault corruption.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "zbp/btb/set_assoc_btb.hh"
#include "zbp/btb/simd.hh"
#include "zbp/common/rng.hh"
#include "zbp/fault/fault_injector.hh"

namespace zbp::btb
{
namespace
{

TEST(SimdKernel, PaddingLanesNeverLeakIntoTheMask)
{
    // Every lane equals the key: the mask must still be clipped to the
    // configured associativity.
    std::uint64_t keys[kMaxBtbWays];
    const std::uint64_t key = 0x8000000000001234ull;
    std::fill(std::begin(keys), std::end(keys), key);
    for (std::uint32_t ways = 1; ways <= kMaxBtbWays; ++ways) {
        const std::uint32_t m = simd::matchWays(keys, key, ways);
        EXPECT_EQ(m, (std::uint32_t{1} << ways) - 1) << "ways " << ways;
    }
}

/** Brute-force row scan with the exact searchFrom ordering contract:
 * ascending row offset, ascending way on equal offsets. */
std::vector<BtbHit>
referenceSearchFrom(const SetAssocBtb &t, Addr search_addr)
{
    const std::uint32_t row = t.rowOf(search_addr);
    const std::uint64_t from = search_addr & t.config().offsetMask;
    std::vector<BtbHit> out;
    for (std::uint32_t w = 0; w < t.config().ways; ++w) {
        const BtbEntry e = t.entryAt(row, w);
        if (!e.valid || !t.tagMatch(e.ia, search_addr))
            continue;
        if ((e.ia & t.config().offsetMask) < from)
            continue;
        out.push_back({row, w, e});
    }
    std::stable_sort(out.begin(), out.end(),
                     [&](const BtbHit &a, const BtbHit &b) {
                         return (a.entry.ia & t.config().offsetMask) <
                                (b.entry.ia & t.config().offsetMask);
                     });
    return out;
}

/** Same, for readRow: every tag-matching way, in way order. */
std::vector<BtbHit>
referenceReadRow(const SetAssocBtb &t, Addr row_addr)
{
    const std::uint32_t row = t.rowOf(row_addr);
    std::vector<BtbHit> out;
    for (std::uint32_t w = 0; w < t.config().ways; ++w) {
        const BtbEntry e = t.entryAt(row, w);
        if (e.valid && t.tagMatch(e.ia, row_addr))
            out.push_back({row, w, e});
    }
    return out;
}

void
expectSameHits(const BtbHitList &got, const std::vector<BtbHit> &want,
               const char *what, std::uint32_t ways)
{
    ASSERT_EQ(got.size(), want.size()) << what << " ways " << ways;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].row, want[i].row) << what << " ways " << ways;
        EXPECT_EQ(got[i].way, want[i].way) << what << " ways " << ways;
        EXPECT_EQ(got[i].entry.ia, want[i].entry.ia);
        EXPECT_EQ(got[i].entry.target, want[i].entry.target);
        EXPECT_EQ(got[i].entry.phtAllowed, want[i].entry.phtAllowed);
        EXPECT_EQ(got[i].entry.ctbAllowed, want[i].entry.ctbAllowed);
    }
}

TEST(SimdSearch, RowPrimitivesMatchBruteForceAcrossWays)
{
    // The issue's associativity sweep: 1 (degenerate), 2, 4 (BTB1),
    // 6 (BTBP/BTB2).  The dispatched kernel and the brute-force walk
    // must agree on every primitive for every probe.
    for (const std::uint32_t ways : {1u, 2u, 4u, 6u}) {
        SetAssocBtb t("sweep", BtbConfig{16, ways, 32, 40});
        Rng rng(0x5EED0000ull + ways);
        const auto draw_addr = [&rng] { return Addr{rng.below(4096)} * 2; };
        for (int step = 0; step < 4000; ++step) {
            if (rng.below(100) < 45) {
                BtbEntry e = BtbEntry::freshTaken(
                        draw_addr(), draw_addr() + 0x40000);
                e.phtAllowed = rng.below(2) != 0;
                e.ctbAllowed = rng.below(2) != 0;
                t.install(e, rng.below(4) != 0);
            } else if (rng.below(10) == 0) {
                t.invalidate(draw_addr());
            }
            const Addr probe = draw_addr();
            expectSameHits(t.searchFrom(probe),
                           referenceSearchFrom(t, probe), "searchFrom",
                           ways);
            expectSameHits(t.readRow(probe), referenceReadRow(t, probe),
                           "readRow", ways);
            // lookup must agree with the exact-address subset.
            const auto h = t.lookup(probe);
            bool want_hit = false;
            for (const auto &r : referenceReadRow(t, probe))
                if (((r.entry.ia ^ probe) & t.config().offsetMask) == 0)
                    want_hit = true;
            ASSERT_EQ(h.has_value(), want_hit) << "ways " << ways;
        }
    }
}

TEST(RowSig, AliasingSignaturesStillDisambiguate)
{
    // Two branches in the same row whose *tags* differ but whose
    // one-bit-in-64 signatures collide: the filter passes for both, and
    // the key compare must still separate them.
    SetAssocBtb t("alias", BtbConfig{16, 4, 32, 40});
    const Addr a = 0x20; // row 1, tag 0
    Addr b = 0;
    const std::uint64_t span =
            std::uint64_t{t.config().rows} * t.config().rowBytes;
    for (std::uint64_t k = 1; k < 2048; ++k) {
        const Addr cand = a + k * span; // same row, different tag
        if (t.tagSig(cand) == t.tagSig(a)) {
            b = cand;
            break;
        }
    }
    ASSERT_NE(b, 0u) << "no signature alias found in 2048 tags";

    t.install(BtbEntry::freshTaken(a, 0x1111));
    t.install(BtbEntry::freshTaken(b, 0x2222));
    ASSERT_TRUE(t.lookup(a).has_value());
    ASSERT_TRUE(t.lookup(b).has_value());
    EXPECT_EQ(t.lookup(a)->entry.target, 0x1111u);
    EXPECT_EQ(t.lookup(b)->entry.target, 0x2222u);

    // A third tag with the same colliding signature but no entry: the
    // filter passes, the key compare must reject every way.
    for (std::uint64_t k = 1; k < 4096; ++k) {
        const Addr c = a + k * span;
        if (c != b && t.tagSig(c) == t.tagSig(a)) {
            EXPECT_FALSE(t.lookup(c).has_value());
            EXPECT_TRUE(t.searchFrom(c).empty());
            break;
        }
    }
}

TEST(RowSig, StaleBitsAfterInvalidateNeverFabricateHits)
{
    SetAssocBtb t("stale", BtbConfig{16, 4, 32, 40});
    const Addr a = 0x40;
    t.install(BtbEntry::freshTaken(a, 0xAAAA));
    ASSERT_TRUE(t.invalidate(a));
    // rowSig keeps the signature bit (superset invariant); the key
    // plane must still reject the probe.
    EXPECT_FALSE(t.lookup(a).has_value());
    EXPECT_TRUE(t.searchFrom(a).empty());
    EXPECT_TRUE(t.readRow(a).empty());
    EXPECT_EQ(t.validCount(), 0u);

    t.reset();
    t.install(BtbEntry::freshTaken(a, 0xBBBB));
    EXPECT_EQ(t.lookup(a)->entry.target, 0xBBBBu);
}

TEST(RowSig, FaultCorruptedRowsStayInternallyConsistent)
{
    // Drive the parity-hit corruption path (drop / target flip / tag
    // flip) across many seeds; after each fault, every valid slot must
    // still be reachable through the filtered search — i.e. the tag
    // flip refreshed the key lane and kept rowSig a superset.
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        SetAssocBtb t("fault", BtbConfig{16, 4, 32, 40});
        Rng fill(seed * 977);
        for (int i = 0; i < 48; ++i)
            t.install(BtbEntry::freshTaken(Addr{fill.below(4096)} * 2,
                                           0x40000 + i));

        fault::FaultParams fp;
        fp.enabled = true;
        fp.seed = seed;
        fp.rate = 1.0;
        fp.maxFaults = 1; // exactly one fault, on the next access
        fault::FaultInjector inj(fp);
        t.attachFaultInjector(inj, fault::Site::kBtb1);
        (void)t.searchFrom(Addr{fill.below(4096)} * 2); // fires here

        for (std::uint32_t r = 0; r < t.config().rows; ++r) {
            for (std::uint32_t w = 0; w < t.config().ways; ++w) {
                const BtbEntry e =
                        t.entryAt(r, w);
                if (!e.valid)
                    continue;
                // The (possibly aliased) stored address must be
                // findable by all three primitives.
                EXPECT_TRUE(t.lookup(e.ia).has_value())
                        << "seed " << seed;
                EXPECT_FALSE(t.readRow(e.ia).empty()) << "seed " << seed;
                EXPECT_FALSE(t.searchFrom(e.ia & ~t.config().offsetMask)
                                     .empty())
                        << "seed " << seed;
            }
        }
    }
}

TEST(SetAssocBtbConfig, RejectsUnsupportedWayCounts)
{
    // The inline hit list and the padded key-plane lane group are both
    // sized kMaxBtbWays; wider (or zero-way) geometry is a descriptive
    // construction error, not a silent overflow.
    BtbConfig bad{16, kMaxBtbWays + 1, 32, 40};
    try {
        SetAssocBtb t("toowide", bad);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("ways"), std::string::npos)
                << e.what();
        EXPECT_NE(std::string(e.what()).find("toowide"),
                  std::string::npos)
                << e.what();
    }
    EXPECT_THROW(SetAssocBtb("zeroways", BtbConfig{16, 0, 32, 40}),
                 std::invalid_argument);
    // The full supported range constructs.
    for (std::uint32_t w = 1; w <= kMaxBtbWays; ++w)
        EXPECT_NO_THROW(SetAssocBtb("ok", BtbConfig{16, w, 32, 40}));
}

} // namespace
} // namespace zbp::btb
