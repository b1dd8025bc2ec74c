/**
 * @file
 * The complete parameter block of a simulated machine configuration.
 *
 * Defaults reproduce the zEC12 configuration 2 of the paper's Table 3
 * (BTB2 enabled).  sim/configs.hh derives the other Table 3
 * configurations and the Figure 5/6/7 sweep points from this.
 */

#ifndef ZBP_CORE_PARAMS_HH
#define ZBP_CORE_PARAMS_HH

#include <cstdint>

#include "zbp/btb/set_assoc_btb.hh"
#include "zbp/cache/icache.hh"
#include "zbp/preload/btb2_arbiter.hh"
#include "zbp/preload/btb2_engine.hh"
#include "zbp/preload/sector_order_table.hh"

namespace zbp::core
{

/** First-level search pipeline knobs (paper §3.2, §3.4). */
struct SearchParams
{
    /** Consecutive fruitless searches (32 B each) before a BTB1 miss is
     * reported; the hardware uses 4 (128 bytes).  Figure 6 sweeps this. */
    unsigned missSearchLimit = 4;

    /** Maximum not-taken predictions broadcast per searched row. */
    unsigned maxNotTakenPerRow = 2;

    /** Fast Index Table capacity (taken-branch re-index acceleration);
     * 0 disables the FIT. */
    unsigned fitEntries = 64;

    /** Outstanding-prediction cap: how far the asynchronous lookahead
     * predictor may run ahead of decode. */
    unsigned maxQueuedPredictions = 24;

    /** Sequential search burst shape: the pipeline performs this many
     * back-to-back searches, then stalls the same number of cycles
     * re-indexing (paper: 3 x 32 B then 3 x 0 B = 16 B/cycle average). */
    unsigned seqBurst = 3;
};

/** Core (fetch/decode/resolve) timing knobs, zEC12-flavoured. */
struct CpuParams
{
    unsigned decodeWidth = 3;        ///< instructions decoded per cycle
    unsigned fetchBytesPerCycle = 16;
    unsigned fetchToDecode = 5;      ///< fetch-buffer traversal latency
    unsigned decodeToResolve = 9;    ///< branch resolution depth
    unsigned restartPenalty = 5;     ///< extra cycles after a resolve-time
                                     ///< restart before decode resumes
    unsigned fetchBufferInsts = 48;  ///< decoupling queue capacity

    /** Window (cycles) after an install during which a repeated surprise
     * for the same branch counts as a latency (not capacity) miss. */
    unsigned installLatencyWindow = 24;

    /** Background execution stalls for traces *without* operand
     * addresses: a deterministic fraction of instructions stall decode
     * for dataStallCycles.  Traces produced by zbp::workload carry
     * synthesized data addresses and use the finite D-cache instead.
     * Either way the effect is identical across configurations, so CPI
     * *differences* stay branch-driven; the background stalls
     * reproduce the commercial-workload CPI (well above 1.0) that
     * gives the asynchronous lookahead predictor its slack. */
    double dataStallProb = 0.05;
    unsigned dataStallCycles = 9;

    /** Extra decode stall beyond the D-cache miss latency (pipeline
     * replay depth on an operand miss). */
    unsigned dcacheMissExtra = 0;
};

/**
 * CMP (chip multiprocessor) knobs, consumed by sim::CmpModel.  A plain
 * CoreModel ignores them entirely; the defaults describe a degenerate
 * one-core "CMP" whose single-bank, conflict-free shared BTB2 is
 * bit-identical to the private-BTB2 machine (pinned by the golden
 * counter equivalence test).
 */
struct CmpParams
{
    unsigned cores = 1;        ///< front ends stepping in lockstep
    unsigned btb2Banks = 1;    ///< shared-BTB2 banks (power of two)
    unsigned arbQueueDepth = 8; ///< max cycles of backlog a bank queues
    preload::ArbPolicy arbPolicy = preload::ArbPolicy::kFcfs;

    /** Instructions each core decodes per lockstep window.  Smaller =
     * tighter inter-core time alignment, more stepping overhead. */
    unsigned stepInsts = 64;

    /** Model a shared L2 instruction cache behind the per-core L1Is.
     * Off by default so the N=1 CMP stays bit-identical to CoreModel. */
    bool sharedL2i = false;
    cache::ICacheParams l2i{/*sizeBytes=*/1024 * 1024, /*ways=*/8,
                            /*lineBytes=*/256, /*missLatency=*/40,
                            /*missRecordTtl=*/2000};
};

/** The constraint MachineParams::fields() attaches to one field, which
 * validate() enforces.  kAny fields take every value their type can
 * hold; cross-field rules stay in validate() itself. */
struct FieldRule
{
    enum Kind : std::uint8_t { kAny, kNonZero, kPow2, kRange, kProb };
    Kind kind = kAny;
    std::uint32_t lo = 0; ///< kRange: the inclusive bounds
    std::uint32_t hi = 0;
};

/** Everything needed to build one simulated machine. */
struct MachineParams
{
    // Branch prediction structures (Table 3 row 2 defaults).
    btb::BtbConfig btb1 = btb::btb1Config();
    btb::BtbConfig btbp = btb::btbpConfig();
    btb::BtbConfig btb2 = btb::btb2Config();
    bool btb2Enabled = true;

    std::uint32_t phtEntries = 4096;
    std::uint32_t ctbEntries = 2048;
    std::uint32_t surpriseBhtEntries = 32 * 1024;

    SearchParams search;
    preload::Btb2EngineParams engine;
    preload::SotParams sot;
    cache::ICacheParams icache;
    cache::ICacheParams dcache = cache::dcacheParams();
    bool dcacheEnabled = true;
    CpuParams cpu;

    /** Report BTB1 misses from decode-time surprises as well (the
     * paper's §3.4 "alternative definition"; off in hardware). */
    bool decodeTimeMissReports = false;

    /** Build SimResult::statsText (the full stats::Group dump).  On by
     * default for tests and reports; sweeps turn it off to keep string
     * formatting out of the hot path.  Counters are unaffected. */
    bool collectStatsText = true;

    /** CMP sharing knobs; ignored outside sim::CmpModel. */
    CmpParams cmp;

    /**
     * Reject degenerate configurations with a descriptive
     * std::invalid_argument before any table is sized from them
     * (CoreModel's constructor calls this; sweep/config-file code paths
     * may call it earlier for friendlier reporting).
     */
    void validate() const;

    /**
     * The one field list: calls v(key, field) or v(key, field, rule)
     * once per settable field, keyed by its dotted config name.  The
     * config parser, the key list and validate() all walk it (the
     * state(Self &, Io &) pattern of ckpt/ckpt.hh); BtbConfig's derived
     * shift/mask members are not fields.
     */
    template <class Self, class V> static void fields(Self &s, V &v);
};

template <class Self, class V>
void
MachineParams::fields(Self &s, V &v)
{
    constexpr FieldRule nonZero{FieldRule::kNonZero};
    constexpr FieldRule pow2{FieldRule::kPow2};
    constexpr FieldRule prob{FieldRule::kProb};
    constexpr FieldRule btbWays{FieldRule::kRange, 1, btb::kMaxBtbWays};
    constexpr FieldRule tagBits{FieldRule::kRange, 1, 58};

    v("btb1.rows", s.btb1.rows, pow2);
    v("btb1.ways", s.btb1.ways, btbWays);
    v("btb1.rowBytes", s.btb1.rowBytes, pow2);
    v("btb1.tagBits", s.btb1.tagBits, tagBits);
    v("btbp.rows", s.btbp.rows, pow2);
    v("btbp.ways", s.btbp.ways, btbWays);
    v("btbp.rowBytes", s.btbp.rowBytes, pow2);
    v("btbp.tagBits", s.btbp.tagBits, tagBits);
    v("btb2.rows", s.btb2.rows, pow2);
    v("btb2.ways", s.btb2.ways, btbWays);
    v("btb2.rowBytes", s.btb2.rowBytes, pow2);
    v("btb2.tagBits", s.btb2.tagBits, tagBits);
    v("btb2Enabled", s.btb2Enabled);
    v("phtEntries", s.phtEntries, pow2);
    v("ctbEntries", s.ctbEntries, pow2);
    v("surpriseBhtEntries", s.surpriseBhtEntries, pow2);

    v("search.missSearchLimit", s.search.missSearchLimit, nonZero);
    v("search.maxNotTakenPerRow", s.search.maxNotTakenPerRow, nonZero);
    v("search.fitEntries", s.search.fitEntries);
    v("search.maxQueuedPredictions", s.search.maxQueuedPredictions, nonZero);
    v("search.seqBurst", s.search.seqBurst, nonZero);

    v("engine.numTrackers", s.engine.numTrackers, nonZero);
    v("engine.partialSectors", s.engine.partialSectors, nonZero);
    v("engine.startDelay", s.engine.startDelay);
    v("engine.pipeDepth", s.engine.pipeDepth, nonZero);
    v("engine.icacheFilter", s.engine.icacheFilter);
    v("engine.semiExclusive", s.engine.semiExclusive);
    v("engine.rowReadInterval", s.engine.rowReadInterval, nonZero);
    v("engine.multiBlockTransfer", s.engine.multiBlockTransfer);
    v("engine.maxChainedBlocks", s.engine.maxChainedBlocks, nonZero);

    v("sot.entries", s.sot.entries);
    v("sot.ways", s.sot.ways);
    v("sot.enabled", s.sot.enabled);

    v("icache.sizeBytes", s.icache.sizeBytes);
    v("icache.ways", s.icache.ways, nonZero);
    v("icache.lineBytes", s.icache.lineBytes, pow2);
    v("icache.missLatency", s.icache.missLatency);
    v("icache.missRecordTtl", s.icache.missRecordTtl);
    v("dcache.sizeBytes", s.dcache.sizeBytes);
    v("dcache.ways", s.dcache.ways, nonZero);
    v("dcache.lineBytes", s.dcache.lineBytes, pow2);
    v("dcache.missLatency", s.dcache.missLatency);
    v("dcache.missRecordTtl", s.dcache.missRecordTtl);
    v("dcacheEnabled", s.dcacheEnabled);

    v("cpu.decodeWidth", s.cpu.decodeWidth, nonZero);
    v("cpu.fetchBytesPerCycle", s.cpu.fetchBytesPerCycle, nonZero);
    v("cpu.fetchToDecode", s.cpu.fetchToDecode);
    v("cpu.decodeToResolve", s.cpu.decodeToResolve);
    v("cpu.restartPenalty", s.cpu.restartPenalty);
    v("cpu.fetchBufferInsts", s.cpu.fetchBufferInsts, nonZero);
    v("cpu.installLatencyWindow", s.cpu.installLatencyWindow);
    v("cpu.dataStallProb", s.cpu.dataStallProb, prob);
    v("cpu.dataStallCycles", s.cpu.dataStallCycles);
    v("cpu.dcacheMissExtra", s.cpu.dcacheMissExtra);

    v("decodeTimeMissReports", s.decodeTimeMissReports);
    v("collectStatsText", s.collectStatsText);

    v("cmp.cores", s.cmp.cores, FieldRule{FieldRule::kRange, 1, 64});
    v("cmp.btb2Banks", s.cmp.btb2Banks, pow2);
    v("cmp.arbQueueDepth", s.cmp.arbQueueDepth, nonZero);
    v("cmp.arbPolicy", s.cmp.arbPolicy);
    v("cmp.stepInsts", s.cmp.stepInsts, nonZero);
    v("cmp.sharedL2i", s.cmp.sharedL2i);
    // validate() checks these rules only when sharedL2i is set.
    v("cmp.l2i.sizeBytes", s.cmp.l2i.sizeBytes);
    v("cmp.l2i.ways", s.cmp.l2i.ways, nonZero);
    v("cmp.l2i.lineBytes", s.cmp.l2i.lineBytes, pow2);
    v("cmp.l2i.missLatency", s.cmp.l2i.missLatency);
    v("cmp.l2i.missRecordTtl", s.cmp.l2i.missRecordTtl);
}

// A field added to MachineParams (or to one of its parts) needs its row
// in fields() above; then update this size.
static_assert(sizeof(MachineParams) == 392,
              "MachineParams changed: give the new field a fields() row");

} // namespace zbp::core

#endif // ZBP_CORE_PARAMS_HH
