/**
 * @file
 * First-level instruction cache model.
 *
 * The paper's methodology models the L1 caches as finite and everything
 * beyond as infinite (every L1 miss is an L2 hit with fixed latency).
 * The zEC12 L1 I-cache is 64 KB 4-way (Table 5); z-series line size is
 * 256 bytes.  Besides hit/miss, the cache records *recent misses per
 * 4 KB block* because the BTB2 transfer filter (paper §3.5) asks "did
 * this perceived BTB1 miss also have an instruction cache miss in the
 * same 4 KB block?".
 */

#ifndef ZBP_CACHE_ICACHE_HH
#define ZBP_CACHE_ICACHE_HH

#include <cstdint>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/bitfield.hh"
#include "zbp/common/types.hh"
#include "zbp/stats/stats.hh"
#include "zbp/util/flat_addr_map.hh"
#include "zbp/util/lru.hh"

namespace zbp::cache
{

/** Geometry and latency knobs for an L1 cache (used for both the
 * instruction cache and, with dcacheParams(), the data cache). */
struct ICacheParams
{
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t lineBytes = 256;
    /** Cycles from miss detection to line available (infinite L2 hit,
     * paper §4). */
    std::uint32_t missLatency = 14;
    /** How long (cycles) a block-granular miss record stays live for the
     * BTB2 filter. */
    std::uint32_t missRecordTtl = 2000;
};

/** zEC12 L1 D-cache geometry (Table 5): 96 KB, 6-way. */
inline ICacheParams
dcacheParams()
{
    ICacheParams p;
    p.sizeBytes = 96 * 1024;
    p.ways = 6;
    p.lineBytes = 256;
    p.missLatency = 12;
    return p;
}

/** Set-associative I-cache with per-4KB-block miss recording. */
class ICache
{
  public:
    explicit ICache(const ICacheParams &p);

    /**
     * Access the line containing @p addr at time @p now.
     * On a miss the line is installed immediately (the caller models the
     * latency) and the 4 KB block of @p addr is recorded as having
     * missed at @p now.
     *
     * @return true on hit.
     */
    bool
    access(Addr addr, Cycle now)
    {
        if (lookup(addr))
            return true;
        blockMiss.assign(addr >> 12, now);
        return false;
    }

    /** access() without the block record, for a cache whose misses
     * nothing asks about (the D-cache outcome map, the shared L2I). */
    bool lookup(Addr addr);

    /** Probe without updating replacement state or installing. */
    bool probe(Addr addr) const;

    /**
     * BTB2 filter query: did any I-cache miss occur in the 4 KB block of
     * @p addr within the record TTL ending at @p now?
     */
    bool blockMissedRecently(Addr addr, Cycle now) const;

    /** Serialize lines + LRU + miss records into one checkpoint
     * section. */
    void saveState(ckpt::Writer &w) const;

    /** Overwrite from a checkpoint section; throws ckpt::CkptError on
     * geometry mismatch or corrupt LRU state. */
    void restoreState(ckpt::Reader &r);

    const ICacheParams &params() const { return prm; }

    std::uint64_t hits() const { return nHits.value(); }
    std::uint64_t misses() const { return nMisses.value(); }

    void
    registerStats(stats::Group &g) const
    {
        g.add("hits", nHits, "I-cache line hits");
        g.add("misses", nMisses, "I-cache line misses");
    }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    struct Line
    {
        bool valid = false;
        Addr tag = 0;
    };

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    ICacheParams prm;
    std::uint32_t numSets;
    unsigned lineShift;           ///< log2(lineBytes)
    unsigned setShift;            ///< log2(numSets)
    std::vector<Line> lines;      ///< numSets * ways, row-major
    std::vector<LruState> lru;    ///< one per set

    /** 4 KB block number -> cycle of most recent miss in that block. */
    FlatAddrMap<Cycle> blockMiss;

    stats::Counter nHits;
    stats::Counter nMisses;
};

} // namespace zbp::cache

#endif // ZBP_CACHE_ICACHE_HH
