/**
 * @file
 * Sector Order Table (SOT) — the BTB2 search-steering structure.
 *
 * Paper §3.7: each 4 KB block is divided into 32 sectors of 128 bytes,
 * grouped into four 1 KB quartiles.  As instructions complete, the
 * quartile through which the block was entered (the demand quartile)
 * accumulates (a) one bit per sector that executed and (b) one bit per
 * *other* quartile that was entered from within the block.  The table
 * holds 512 entries, 2-way set associative, each covering one 4 KB block
 * (2 MB total reach).
 *
 * At BTB2 search time the entry steers the bulk transfer: active sectors
 * of the demand quartile first, then active sectors of quartiles the
 * demand quartile references, then remaining active sectors, then the
 * inactive sectors in the same priority order.  Without a table hit the
 * search proceeds sequentially starting at the demand quartile.
 */

#ifndef ZBP_PRELOAD_SECTOR_ORDER_TABLE_HH
#define ZBP_PRELOAD_SECTOR_ORDER_TABLE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/bitfield.hh"
#include "zbp/common/types.hh"
#include "zbp/stats/stats.hh"
#include "zbp/util/lru.hh"

namespace zbp::preload
{

/** Sectors/quartiles geometry of a 4 KB block. */
inline constexpr unsigned kBlockBytes = 4096;
inline constexpr unsigned kSectorBytes = 128;
inline constexpr unsigned kSectorsPerBlock = kBlockBytes / kSectorBytes;
inline constexpr unsigned kQuartiles = 4;
inline constexpr unsigned kSectorsPerQuartile =
        kSectorsPerBlock / kQuartiles;

/** 4 KB block number of @p ia. */
constexpr Addr blockOf(Addr ia) { return ia >> 12; }
/** Sector number (0..31) of @p ia within its block. */
constexpr unsigned sectorOf(Addr ia)
{
    return static_cast<unsigned>((ia >> 7) & (kSectorsPerBlock - 1));
}
/** Quartile number (0..3) of @p ia within its block. */
constexpr unsigned quartileOf(Addr ia)
{
    return static_cast<unsigned>((ia >> 10) & (kQuartiles - 1));
}

/** Reference pattern for one 4 KB block. */
struct BlockPattern
{
    /** Bit s set = sector s executed (32 sector bits, 8 per quartile). */
    std::uint32_t sectorBits = 0;
    /** quartileRefs[q] = mask of quartiles entered from within the block
     * while q was the demand quartile (3 meaningful bits; the self bit
     * is never set). */
    std::array<std::uint8_t, kQuartiles> quartileRefs{};

    bool
    empty() const
    {
        if (sectorBits != 0)
            return false;
        for (auto r : quartileRefs)
            if (r != 0)
                return false;
        return true;
    }

    /** OR-merge @p other into this pattern. */
    void
    merge(const BlockPattern &other)
    {
        sectorBits |= other.sectorBits;
        for (unsigned q = 0; q < kQuartiles; ++q)
            quartileRefs[q] |= other.quartileRefs[q];
    }
};

/** The steering order produced for a BTB2 bulk search. */
struct SectorOrder
{
    /** All 32 sectors of the block, highest priority first. */
    std::array<std::uint8_t, kSectorsPerBlock> sectors{};
    /** Number of leading entries that carry *active* sector bits
     * (priority classes 1-3); the rest are the inactive repeat pass. */
    unsigned activeCount = 0;
    bool fromTableHit = false;
};

/** Parameters of the SOT. */
struct SotParams
{
    std::uint32_t entries = 512;
    std::uint32_t ways = 2;
    bool enabled = true; ///< disabled = always sequential order (ablation)
};

/** The tagged ordering table plus the live per-checkpoint tracking. */
class SectorOrderTable
{
  public:
    explicit SectorOrderTable(const SotParams &p);

    /**
     * Completion-time tracking: feed every completed instruction here.
     * Handles block entry/exit, demand-quartile bookkeeping and
     * write-back of the accumulated pattern on block change.
     */
    void instructionCompleted(Addr ia);

    /**
     * Produce the BTB2 search order for @p miss_addr's block.
     * Uses the stored pattern (merged with live tracking when the block
     * is the one currently executing); falls back to sequential order
     * from the demand quartile on a table miss or when disabled.
     */
    SectorOrder order(Addr miss_addr) const;

    /** Probe the stored pattern for a block (testing/inspection). */
    const BlockPattern *probe(Addr block_addr) const;

    void reset();

    /** Serialize table + live tracking state into one checkpoint
     * section. */
    void saveState(ckpt::Writer &w) const;

    /** Overwrite from a checkpoint section; throws ckpt::CkptError on
     * geometry mismatch or corrupt LRU state. */
    void restoreState(ckpt::Reader &r);

    void
    registerStats(stats::Group &g) const
    {
        g.add("writebacks", nWriteback, "patterns written to the table");
        g.add("hits", nHits, "order() calls with a pattern hit");
        g.add("misses", nMisses, "order() calls without a pattern");
    }

    std::uint64_t hitCount() const { return nHits.value(); }
    std::uint64_t missCount() const { return nMisses.value(); }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    struct Entry
    {
        bool valid = false;
        Addr block = 0;
        BlockPattern pattern;
    };

    std::uint32_t setOf(Addr block) const;
    const Entry *find(Addr block) const;
    void writeBack();

    /** Build the priority order from a pattern (static helper, also used
     * by tests). */
    static SectorOrder buildOrder(const BlockPattern &p,
                                  unsigned demand_quartile);
    static SectorOrder sequentialOrder(unsigned demand_quartile);

    SotParams prm;
    std::uint32_t numSets;
    std::vector<Entry> table; ///< numSets x ways
    std::vector<LruState> lru;

    // Live tracking state ("as a function of instruction checkpoint").
    bool tracking = false;
    Addr curBlock = 0;
    unsigned demandQuartile = 0;
    BlockPattern working;

    mutable stats::Counter nWriteback;
    mutable stats::Counter nHits;
    mutable stats::Counter nMisses;

    friend class SectorOrderTableTestPeer;
};

} // namespace zbp::preload

#endif // ZBP_PRELOAD_SECTOR_ORDER_TABLE_HH
