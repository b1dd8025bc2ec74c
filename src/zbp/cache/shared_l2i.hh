/**
 * @file
 * SharedL2I — a shared second-level instruction cache for the CMP model.
 *
 * The single-core methodology (paper §4) models the L1I as finite and
 * everything behind it as an infinite L2 with fixed latency.  With N
 * cores that abstraction hides the second sharing effect the CMP model
 * exists to measure: cores with overlapping instruction footprints warm
 * a shared L2I for each other (constructive), disjoint footprints thrash
 * it (destructive) — exactly the axis the shared BTB2 is evaluated on.
 *
 * The model stays deliberately simple: one ICache instance with L2-like
 * geometry, probed on every per-core L1I miss.  An L2 hit costs the
 * plain L1 miss latency; an L2 miss costs the L2I's (larger) latency.
 * No banking or port contention — front-end fetch rates make L2I port
 * conflicts second-order next to BTB2 read-port conflicts, and the
 * arbiter already models the latter.  Cores step sequentially on one
 * thread, so no locking either.
 *
 * Off by default (CmpParams::sharedL2i): with it off, a CMP core's miss
 * path is byte-for-byte the single-core one, which the N=1 golden
 * equivalence test requires.
 */

#ifndef ZBP_CACHE_SHARED_L2I_HH
#define ZBP_CACHE_SHARED_L2I_HH

#include <vector>

#include "zbp/cache/icache.hh"

namespace zbp::cache
{

class SharedL2I
{
  public:
    SharedL2I(const ICacheParams &p, unsigned cores)
        : array(p), hitsBy(cores, 0), missesBy(cores, 0)
    {
    }

    /**
     * Look up the line of @p addr on behalf of @p core after an L1I
     * miss; installs on miss.
     *
     * @return the full miss latency the core should charge: the L1's
     * @p l1_miss_latency on an L2 hit, the L2I's on an L2 miss.
     */
    std::uint32_t
    fetchMiss(unsigned core, Addr addr, std::uint32_t l1_miss_latency)
    {
        if (array.lookup(addr)) {
            ++hitsBy[core];
            return l1_miss_latency;
        }
        ++missesBy[core];
        return array.params().missLatency;
    }

    /** Serialize array state + per-core tallies into checkpoint
     * sections (the ICache writes its own section first). */
    void saveState(ckpt::Writer &w) const { state(*this, w); }

    /** Overwrite from checkpoint sections; throws ckpt::CkptError on a
     * core-count mismatch. */
    void restoreState(ckpt::Reader &r) { state(*this, r); }

    std::uint64_t hits() const { return array.hits(); }
    std::uint64_t misses() const { return array.misses(); }
    const std::vector<std::uint64_t> &coreHits() const { return hitsBy; }
    const std::vector<std::uint64_t> &coreMisses() const { return missesBy; }
    const ICacheParams &params() const { return array.params(); }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        io.part(s.array);
        io.beginSection(ckpt::tag::kSharedL2I);
        io.expect(static_cast<std::uint32_t>(s.hitsBy.size()),
                  "shared L2I core count");
        for (std::size_t c = 0; c < s.hitsBy.size(); ++c) {
            io.u64(s.hitsBy[c]);
            io.u64(s.missesBy[c]);
        }
        io.endSection();
    }

    ICache array;
    std::vector<std::uint64_t> hitsBy;
    std::vector<std::uint64_t> missesBy;
};

} // namespace zbp::cache

#endif // ZBP_CACHE_SHARED_L2I_HH
