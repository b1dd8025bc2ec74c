/**
 * @file
 * One table of every SimResult counter, and what the benchmark derives
 * from it: the counter digest that pins a result bit for bit, and the
 * fieldwise add/subtract a sampled stitch needs.
 */

#ifndef ZBP_PERFBENCH_COUNTERS_HH
#define ZBP_PERFBENCH_COUNTERS_HH

#include <bit>
#include <cstdint>

#include "zbp/cpu/core_model.hh"
#include "zbp/sim/cmp/cmp_model.hh"

namespace perfbench
{

using zbp::cpu::SimResult;

inline constexpr std::uint64_t SimResult::*kCounters[] = {
    &SimResult::cycles,
    &SimResult::instructions,
    &SimResult::branches,
    &SimResult::takenBranches,
    &SimResult::correct,
    &SimResult::mispredictDir,
    &SimResult::mispredictTarget,
    &SimResult::surpriseCompulsory,
    &SimResult::surpriseLatency,
    &SimResult::surpriseCapacity,
    &SimResult::surpriseBenign,
    &SimResult::phantoms,
    &SimResult::icacheMisses,
    &SimResult::dcacheMisses,
    &SimResult::dataAccesses,
    &SimResult::btb1MissReports,
    &SimResult::btb2RowReads,
    &SimResult::btb2Transfers,
    &SimResult::btb2FullSearches,
    &SimResult::btb2PartialSearches,
    &SimResult::predictionsMade,
    &SimResult::watchdogResets,
    &SimResult::resolves,
    &SimResult::faultsInjected,
};

/** FNV-1a style running hash over 64-bit words. */
class Digest
{
  public:
    Digest &
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ull;
        }
        return *this;
    }

    Digest &add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }

    /** Every counter of @p r plus its CPI bits. */
    Digest &
    add(const SimResult &r)
    {
        for (const auto f : kCounters)
            add(r.*f);
        return add(r.cpi);
    }

    /** Every core and every sharing counter of a CMP run. */
    Digest &
    add(const zbp::sim::CmpResult &r)
    {
        for (const SimResult &c : r.core)
            add(c);
        add(r.arbRequests).add(r.arbGrants).add(r.arbConflicts);
        add(r.arbWaitCycles).add(r.arbQueueFullRejects);
        add(r.l2iHits).add(r.l2iMisses).add(r.faultsInjectedShared);
        for (const auto *v : {&r.coreGrants, &r.coreWaitCycles,
                              &r.bankGrants, &r.l2iCoreHits,
                              &r.l2iCoreMisses})
            for (const std::uint64_t x : *v)
                add(x);
        return *this;
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xCBF29CE484222325ull;
};

/** acc += d over every counter. */
inline void
accumulate(SimResult &acc, const SimResult &d)
{
    for (const auto f : kCounters)
        acc.*f += d.*f;
}

/** end - start over every counter, with the CPI recomputed. */
inline SimResult
subtract(const SimResult &end, const SimResult &start)
{
    SimResult d;
    d.traceName = end.traceName;
    for (const auto f : kCounters)
        d.*f = end.*f - start.*f;
    d.cpi = d.instructions > 0 ? static_cast<double>(d.cycles) /
                                         static_cast<double>(d.instructions)
                               : 0.0;
    return d;
}

} // namespace perfbench

#endif // ZBP_PERFBENCH_COUNTERS_HH
