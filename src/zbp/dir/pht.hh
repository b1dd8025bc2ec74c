/**
 * @file
 * Pattern History Table — tagged, ppm-like direction predictor for
 * branches that exhibit multiple directions.
 *
 * Per the paper (§3.1): 4,096 entries, indexed from the directions of
 * the 12 previous predicted branches and the addresses of the 6 previous
 * taken branches, tagged with branch instruction address bits; whether a
 * particular branch is allowed to use the PHT is controlled by a gate
 * bit kept in its BTB1/BTBP entry.  Same size/configuration as the
 * z196's, similar to Michaud's tagged ppm-like predictor.
 */

#ifndef ZBP_DIR_PHT_HH
#define ZBP_DIR_PHT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "zbp/btb/simd.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/bitfield.hh"
#include "zbp/dir/history.hh"
#include "zbp/fault/fault_injector.hh"
#include "zbp/stats/stats.hh"
#include "zbp/util/saturating_counter.hh"

namespace zbp::dir
{

/** Tagged pattern-history direction table. */
class Pht
{
  public:
    explicit Pht(std::uint32_t entries = 4096, unsigned tag_bits = 10)
        : tagBits(tag_bits), table(entries)
    {
        ZBP_ASSERT(isPowerOf2(entries), "PHT entries must be pow2");
        indexBits = floorLog2(entries);
    }

    /** Freeze the history-dependent parts of this table's hashes so a
     * later lookup/update (possibly against a different ia, under tag
     * aliasing) needs no history at all. */
    unsigned indexWidth() const { return indexBits; }
    unsigned tagWidth() const { return tagBits; }

    std::uint64_t indexOf(const HistoryState &h) const
    {
        return h.phtIndex(indexBits);
    }
    std::uint64_t tagHashOf(const HistoryState &h) const
    {
        return h.pathTagHash(tagBits);
    }

    /**
     * Look up the direction for @p ia under history @p h.
     * @return the predicted direction on tag hit, nullopt on miss.
     */
    std::optional<bool>
    lookup(Addr ia, const HistoryState &h) const
    {
        return lookupHashed(ia, indexOf(h), tagHashOf(h));
    }

    /** Hint the row addressed by a pre-folded @p index into cache.
     * Pure prefetch: no fault hook, no architectural effect.  Issued
     * where the hashes are frozen (decode) so the line is resident by
     * the time lookupHashed/updateHashed consume it. */
    void
    prefetchHashed(std::uint64_t index) const
    {
        btb::simd::prefetchRead(&table[index]);
    }

    /** lookup() with the history pre-folded (hot path: the search
     * pipeline folds once per prediction and carries the hashes). */
    std::optional<bool>
    lookupHashed(Addr ia, std::uint64_t index, std::uint64_t tag_hash) const
    {
        if (faults != nullptr)
            faults->onAccess(fault::Site::kPht, index);
        const Entry &e = table[index];
        if (e.valid && e.tag == tagOf(ia, tag_hash))
            return e.dir.taken();
        return std::nullopt;
    }

    /**
     * Train at resolve time.
     * @param allocate install a fresh entry on tag miss (done when the
     *        bimodal prediction was wrong, i.e. the branch shows
     *        history-correlated behaviour worth the table space).
     */
    void
    update(Addr ia, const HistoryState &h, bool taken, bool allocate)
    {
        updateHashed(ia, indexOf(h), tagHashOf(h), taken, allocate);
    }

    /** update() with the history pre-folded. */
    void
    updateHashed(Addr ia, std::uint64_t index, std::uint64_t tag_hash,
                 bool taken, bool allocate)
    {
        Entry &e = table[index];
        const std::uint16_t tag = tagOf(ia, tag_hash);
        if (e.valid && e.tag == tag) {
            e.dir.update(taken);
            return;
        }
        if (allocate) {
            e.valid = true;
            e.tag = tag;
            e.dir.set(taken ? Bimodal2::kWeakTaken
                            : Bimodal2::kWeakNotTaken);
        }
    }

    void
    reset()
    {
        for (auto &e : table)
            e = Entry{};
    }

    std::size_t size() const { return table.size(); }

    /** Serialize into one checkpoint section (ckpt.hh format notes). */
    void saveState(ckpt::Writer &w) const { state(*this, w); }

    /** Overwrite from a checkpoint section; throws CkptError on any
     * geometry mismatch or out-of-range stored state. */
    void restoreState(ckpt::Reader &r) { state(*this, r); }

    /** Wire this table into @p inj: each lookup is an injection
     * opportunity on the indexed entry. */
    void
    attachFaultInjector(fault::FaultInjector &inj)
    {
        faults = &inj;
        inj.attach(fault::Site::kPht,
                   [this](Rng &rng, std::uint64_t index) {
                       Entry &e = table[index & (table.size() - 1)];
                       if (!e.valid)
                           return;
                       switch (rng.below(3)) {
                         case 0:
                           e = Entry{}; // parity-scrubbed
                           break;
                         case 1:
                           // Tag bit flip: the entry stops matching (or
                           // aliases another branch's history path).
                           e.tag ^= static_cast<std::uint16_t>(
                                   1u << rng.below(tagBits));
                           break;
                         default:
                           // Direction state flip: at worst one extra
                           // mispredict before retraining.
                           e.dir.set(static_cast<std::uint8_t>(
                                   rng.below(Bimodal2::kMax + 1)));
                           break;
                       }
                   });
    }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        Bimodal2 dir{};
    };

    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        io.beginSection(ckpt::tag::kPht);
        io.expect(static_cast<std::uint32_t>(s.table.size()), "PHT size");
        io.expect(static_cast<std::uint32_t>(s.tagBits), "PHT tag width");
        for (auto &e : s.table) {
            io.flag(e.valid);
            io.u32(e.tag);
            Bimodal2::state(e.dir, io);
        }
        io.endSection();
    }

    std::uint16_t
    tagOf(Addr ia, std::uint64_t tag_hash) const
    {
        // Branch-address bits mixed with extra path bits: the classic
        // ppm-like tag that separates different branches sharing an
        // index without widening the index.  The history contribution
        // (@p tag_hash = pathTagHash) arrives pre-folded.
        const std::uint64_t a = ia >> 1;
        const std::uint64_t t = a ^ (a >> indexBits) ^ (tag_hash << 1);
        return static_cast<std::uint16_t>(t & maskBits(tagBits));
    }

    unsigned tagBits;
    unsigned indexBits;
    std::vector<Entry> table;
    fault::FaultInjector *faults = nullptr; ///< null = injection off
};

} // namespace zbp::dir

#endif // ZBP_DIR_PHT_HH
