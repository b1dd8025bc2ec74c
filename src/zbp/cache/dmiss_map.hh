/**
 * @file
 * Precomputed L1 D-cache outcome map: the one D-cache path.
 *
 * The core model issues exactly one D-cache access per trace
 * instruction carrying an operand address, in trace order, and the
 * outcome is a pure function of that address sequence and the cache
 * geometry (the same in every configuration, Table 5).  So every run
 * reads its D-cache outcomes from a map computed once per (trace,
 * geometry): gangs and CMP chips share one, a sampled run fills one
 * beside its warm-up, and a model given none computes its own
 * (CoreModel::beginRun).  The kernel books no per-block miss records:
 * only the I-side's BTB2 filter reads those.
 */

#ifndef ZBP_CACHE_DMISS_MAP_HH
#define ZBP_CACHE_DMISS_MAP_HH

#include <cstdint>
#include <vector>

#include "zbp/cache/icache.hh"
#include "zbp/trace/trace.hh"

namespace zbp::cache
{

/**
 * Simulate an L1 D-cache of geometry @p p over the operand-address
 * stream of @p t.  Returns one byte per instruction: 1 where the access
 * would miss, 0 on a hit or when the instruction has no operand
 * address.  Bit-identical to feeding the same trace through
 * ICache::access instruction by instruction.
 */
std::vector<std::uint8_t> computeDataMissMap(const trace::Trace &t,
                                             const ICacheParams &p);

/**
 * One stretch of computeDataMissMap: write @p map [begin, end) by
 * running @p c, which has seen the operand addresses of t[0, begin),
 * over those of t[begin, end).  Bytes outside the stretch are not
 * touched, so other threads may read the filled prefix meanwhile.
 */
void fillDataMissMap(const trace::Trace &t, ICache &c,
                     std::vector<std::uint8_t> &map, std::size_t begin,
                     std::size_t end);

/** Do two geometries produce identical outcome maps for every trace?
 * (Latency knobs do not affect hit/miss, only how a miss is charged.) */
inline bool
sameDataMissGeometry(const ICacheParams &a, const ICacheParams &b)
{
    return a.sizeBytes == b.sizeBytes && a.ways == b.ways &&
           a.lineBytes == b.lineBytes;
}

} // namespace zbp::cache

#endif // ZBP_CACHE_DMISS_MAP_HH
