/**
 * @file
 * Global prediction history state.
 *
 * The PHT is indexed from the directions of the 12 previous *predicted*
 * branches and the addresses of the 6 previous taken branches; the CTB
 * from the addresses of the 12 previous taken branches (paper §3.1).
 * The search pipeline updates this state *speculatively* as it predicts
 * ("Until table updates take place, speculative BHT and PHT updates are
 * applied to predictions", §3.2); the core keeps an architectural copy
 * updated at resolve time and copies it over the speculative state on
 * every restart.
 */

#ifndef ZBP_DIR_HISTORY_HH
#define ZBP_DIR_HISTORY_HH

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/bitfield.hh"
#include "zbp/common/types.hh"
#include "zbp/util/shift_history.hh"

namespace zbp::dir
{

/**
 * The three history-derived hash values the PHT and CTB need, frozen
 * at prediction time.  Carrying these in a Prediction instead of a
 * full HistoryState snapshot (~150 bytes of ring buffer) keeps the
 * resolve path from re-folding the history and makes every queue and
 * event copy of a prediction several times smaller.  Table tags mix in
 * the branch address separately (known only at resolve time, where the
 * entry may differ from the perceived address under tag aliasing), so
 * only the history-dependent parts are frozen here.
 */
struct HistoryHashes
{
    std::uint64_t phtIndex = 0;   ///< PHT row index
    std::uint64_t phtTagHash = 0; ///< history part of the PHT tag
    std::uint64_t ctbIndex = 0;   ///< CTB row index (CTB tags are ia-only)
};

/** Combined direction + taken-path history with copy semantics. */
class HistoryState
{
  public:
    static constexpr unsigned kDirDepth = 12;
    static constexpr unsigned kPathDepth = 12;
    static constexpr unsigned kPhtPathDepth = 6;

    HistoryState() : dirs(kDirDepth), path(kPathDepth) {}

    /** Record one branch outcome (prediction or resolution). */
    void
    push(Addr branch_ia, bool taken)
    {
        dirs.push(taken);
        if (taken)
            path.push(branch_ia);
    }

    /** PHT index: 12 direction bits folded with 6 taken-branch IAs. */
    std::uint64_t
    phtIndex(unsigned index_bits) const
    {
        const std::uint64_t folded = path.fold(kPhtPathDepth, index_bits);
        const std::uint64_t d = dirs.value() &
                ((std::uint64_t{1} << kDirDepth) - 1);
        return (folded ^ d ^ (d << 3)) &
               ((std::uint64_t{1} << index_bits) - 1);
    }

    /** CTB index: 12 taken-branch IAs folded to @p index_bits. */
    std::uint64_t
    ctbIndex(unsigned index_bits) const
    {
        return path.fold(kPathDepth, index_bits);
    }

    /** A secondary hash over the same history, used as tag material. */
    std::uint64_t
    pathTagHash(unsigned bits) const
    {
        return path.fold(kPathDepth, bits) ^ (dirs.value() & maskBits(bits));
    }

    /**
     * Pre-register the table geometry so the three path folds are
     * maintained incrementally across push() instead of being
     * recomputed per hashes() call.  hashes() with the same widths
     * then reads three live accumulators; other widths still take the
     * fold3 path.  Purely an acceleration: results are bit-identical
     * either way.
     */
    void
    configureHashCache(unsigned pht_index_bits, unsigned ctb_index_bits,
                       unsigned tag_bits)
    {
        ZBP_ASSERT(!cacheOn, "hash cache configured twice");
        cachePhtSlot = path.registerFold(kPhtPathDepth, pht_index_bits);
        cacheCtbSlot = path.registerFold(kPathDepth, ctb_index_bits);
        cacheTagSlot = path.registerFold(kPathDepth, tag_bits);
        cachePhtBits = pht_index_bits;
        cacheCtbBits = ctb_index_bits;
        cacheTagBits = tag_bits;
        cacheOn = true;
    }

    /**
     * All three table hashes at once.  With a configured hash cache of
     * matching widths this reads the incrementally-maintained
     * accumulators; otherwise it folds the path ring in one traversal.
     * Bit-identical to {phtIndex(pht_index_bits),
     * pathTagHash(tag_bits), ctbIndex(ctb_index_bits)} in both modes:
     * this runs once per prediction on the search hot path.
     */
    HistoryHashes
    hashes(unsigned pht_index_bits, unsigned ctb_index_bits,
           unsigned tag_bits) const
    {
        const std::uint64_t dv = dirs.value();
        const std::uint64_t d = dv & ((std::uint64_t{1} << kDirDepth) - 1);
        HistoryHashes hh;
        if (cacheOn && pht_index_bits == cachePhtBits &&
            ctb_index_bits == cacheCtbBits && tag_bits == cacheTagBits) {
            hh.phtIndex = (path.foldAcc(cachePhtSlot) ^ d ^ (d << 3)) &
                          ((std::uint64_t{1} << pht_index_bits) - 1);
            hh.phtTagHash = path.foldAcc(cacheTagSlot) ^
                            (dv & maskBits(tag_bits));
            hh.ctbIndex = path.foldAcc(cacheCtbSlot);
            return hh;
        }
        PathHistory::FoldStep fp(kPhtPathDepth, pht_index_bits);
        PathHistory::FoldStep fc(kPathDepth, ctb_index_bits);
        PathHistory::FoldStep ft(kPathDepth, tag_bits);
        path.fold3(fp, fc, ft);
        hh.phtIndex = (fp.acc ^ d ^ (d << 3)) &
                      ((std::uint64_t{1} << pht_index_bits) - 1);
        hh.phtTagHash = ft.acc ^ (dv & maskBits(tag_bits));
        hh.ctbIndex = fc.acc;
        return hh;
    }

    void
    clear()
    {
        dirs.clear();
        path.clear();
    }

    /** Copy @p other over this state (restart resynchronization). */
    void
    copyFrom(const HistoryState &other)
    {
        dirs.set(other.dirs.value());
        path.copyFrom(other.path);
    }

    std::uint64_t directionBits() const { return dirs.value(); }

    /** Serialize into one checkpoint section.  The hash-cache
     * configuration is construction-time state and not stored; restore
     * refolds any registered accumulators from the restored ring. */
    void saveState(ckpt::Writer &w) const { state(*this, w); }

    /** Overwrite from a checkpoint section; throws CkptError when the
     * stored ring head is out of range. */
    void restoreState(ckpt::Reader &r) { state(*this, r); }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        io.beginSection(ckpt::tag::kHistory);
        std::uint64_t d = s.dirs.value();
        PathHistory::Snapshot p = s.path.snapshot();
        io.u64(d);
        for (Addr &a : p.ring)
            io.u64(a);
        io.u32(p.head);
        io.check(p.head < s.path.depth(), "ring head out of range");
        io.endSection();
        if constexpr (Io::kReading) {
            s.dirs.set(d);
            s.path.restore(p);
        }
    }

    DirectionHistory dirs;
    PathHistory path;
    unsigned cachePhtSlot = 0;
    unsigned cacheCtbSlot = 0;
    unsigned cacheTagSlot = 0;
    unsigned cachePhtBits = 0;
    unsigned cacheCtbBits = 0;
    unsigned cacheTagBits = 0;
    bool cacheOn = false;
};

} // namespace zbp::dir

#endif // ZBP_DIR_HISTORY_HH
