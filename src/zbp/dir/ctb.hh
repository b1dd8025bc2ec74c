/**
 * @file
 * Changing Target Buffer — tagged, path-indexed target predictor for
 * branches with multiple targets (returns, indirect calls/jumps,
 * dispatch tables).
 *
 * Per the paper (§3.1): 2,048 entries, indexed from the instruction
 * addresses of the 12 previous taken branches, tagged with branch
 * instruction address bits; gated per branch by a bit in the BTB entry.
 */

#ifndef ZBP_DIR_CTB_HH
#define ZBP_DIR_CTB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "zbp/btb/simd.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/bitfield.hh"
#include "zbp/common/types.hh"
#include "zbp/dir/history.hh"
#include "zbp/fault/fault_injector.hh"

namespace zbp::dir
{

/** Tagged changing-target table. */
class Ctb
{
  public:
    explicit Ctb(std::uint32_t entries = 2048, unsigned tag_bits = 10)
        : tagBits(tag_bits), table(entries)
    {
        ZBP_ASSERT(isPowerOf2(entries), "CTB entries must be pow2");
        indexBits = floorLog2(entries);
    }

    unsigned indexWidth() const { return indexBits; }

    /** Freeze the index for @p h; tags are ia-only, so the index is the
     * whole history dependence. */
    std::uint64_t indexOf(const HistoryState &h) const
    {
        return h.ctbIndex(indexBits);
    }

    /** Path-correlated target for @p ia, or nullopt on tag miss. */
    std::optional<Addr>
    lookup(Addr ia, const HistoryState &h) const
    {
        return lookupHashed(ia, indexOf(h));
    }

    /** Hint the row addressed by a pre-folded @p index into cache
     * (no fault hook, no architectural effect). */
    void
    prefetchHashed(std::uint64_t index) const
    {
        btb::simd::prefetchRead(&table[index]);
    }

    /** lookup() with the history pre-folded. */
    std::optional<Addr>
    lookupHashed(Addr ia, std::uint64_t index) const
    {
        if (faults != nullptr)
            faults->onAccess(fault::Site::kCtb, index);
        const Entry &e = table[index];
        if (e.valid && e.tag == tagOf(ia))
            return e.target;
        return std::nullopt;
    }

    /** Record the resolved target of a taken branch under history @p h. */
    void
    update(Addr ia, const HistoryState &h, Addr target)
    {
        updateHashed(ia, indexOf(h), target);
    }

    /** update() with the history pre-folded. */
    void
    updateHashed(Addr ia, std::uint64_t index, Addr target)
    {
        Entry &e = table[index];
        e.valid = true;
        e.tag = tagOf(ia);
        e.target = target;
    }

    void
    reset()
    {
        for (auto &e : table)
            e = Entry{};
    }

    std::size_t size() const { return table.size(); }

    /** Serialize into one checkpoint section. */
    void saveState(ckpt::Writer &w) const { state(*this, w); }

    /** Overwrite from a checkpoint section; throws CkptError on a
     * geometry mismatch. */
    void restoreState(ckpt::Reader &r) { state(*this, r); }

    /** Wire this table into @p inj: each lookup is an injection
     * opportunity on the indexed entry. */
    void
    attachFaultInjector(fault::FaultInjector &inj)
    {
        faults = &inj;
        inj.attach(fault::Site::kCtb,
                   [this](Rng &rng, std::uint64_t index) {
                       Entry &e = table[index & (table.size() - 1)];
                       if (!e.valid)
                           return;
                       switch (rng.below(3)) {
                         case 0:
                           e = Entry{}; // parity-scrubbed
                           break;
                         case 1:
                           e.tag ^= static_cast<std::uint16_t>(
                                   1u << rng.below(tagBits));
                           break;
                         default:
                           // Stored target bit flip: a wrong indirect
                           // target, corrected at resolve.
                           e.target ^= Addr{1} << rng.below(48);
                           break;
                       }
                   });
    }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        Addr target = 0;
    };

    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        io.beginSection(ckpt::tag::kCtb);
        io.expect(static_cast<std::uint32_t>(s.table.size()), "CTB size");
        io.expect(static_cast<std::uint32_t>(s.tagBits), "CTB tag width");
        for (auto &e : s.table) {
            io.flag(e.valid);
            io.u32(e.tag);
            io.u64(e.target);
        }
        io.endSection();
    }

    std::uint16_t
    tagOf(Addr ia) const
    {
        const std::uint64_t a = ia >> 1;
        return static_cast<std::uint16_t>(
                (a ^ (a >> indexBits)) & maskBits(tagBits));
    }

    unsigned tagBits;
    unsigned indexBits;
    std::vector<Entry> table;
    fault::FaultInjector *faults = nullptr; ///< null = injection off
};

} // namespace zbp::dir

#endif // ZBP_DIR_CTB_HH
