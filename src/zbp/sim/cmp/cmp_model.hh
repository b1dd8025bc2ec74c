/**
 * @file
 * CmpModel — an N-core chip multiprocessor stepping N CoreModel front
 * ends in lockstep against one shared, banked BTB2.
 *
 * The paper evaluates BTB2 under a time-sliced single core: context
 * switches thrash capacity, but cores never coexist, so second-level
 * *contention* is never measured.  This model measures it.  Each core
 * keeps the private structures a real CMP would (BTB1, BTBP, PHT, CTB,
 * FIT, SOT, L1I/L1D, its own transfer engine and search pipeline); the
 * BTB2 array is one shared structure whose read port is banked and
 * arbitrated (Btb2Arbiter), and optionally one shared L2I sits behind
 * the per-core L1Is.  Sharing is therefore visible on both axes the
 * CMP question cares about:
 *
 *  - capacity: all cores install victims and surprises into one array,
 *    so overlapping instruction footprints prefetch for each other
 *    (constructive) and disjoint footprints evict each other
 *    (destructive);
 *  - bandwidth: bulk transfers from different cores collide on BTB2
 *    banks and queue at the arbiter.
 *
 * Lockstep and clock domains: each core advances with its own cycle
 * counter (the PR 4 beginRun/advance/finishRun split, unchanged), and
 * the CMP interleaves them in instruction windows of CmpParams::
 * stepInsts, rotating which core steps first each window so no core is
 * systematically older at the arbiter.  Cross-core time is therefore
 * aligned only at window granularity — the sharing model is
 * statistical, not cycle-faithful (DESIGN.md §9).  Cores run
 * sequentially on the calling thread; parallelism stays at the
 * job/trace level where determinism is free.
 *
 * Degenerate single-core invariant: with cores=1, one bank, and the
 * shared L2I off, the arbiter grants every read at its request cycle
 * with zero wait and the rotation is the identity, so a CmpModel run is
 * bit-identical to a plain CoreModel run (golden counters pin this).
 */

#ifndef ZBP_SIM_CMP_CMP_MODEL_HH
#define ZBP_SIM_CMP_CMP_MODEL_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "zbp/cpu/core_model.hh"

namespace zbp::obs
{
class IntervalWriter;
class TraceWriter;
} // namespace zbp::obs

namespace zbp::sim
{

/** Everything an N-core CMP run reports. */
struct CmpResult
{
    /** Per-core results, exactly what a CoreModel run reports. */
    std::vector<cpu::SimResult> core;

    // Shared-BTB2 arbiter (sharing/bandwidth axis).
    std::uint64_t arbRequests = 0;
    std::uint64_t arbGrants = 0;
    std::uint64_t arbConflicts = 0;      ///< grants delayed by a busy bank
    std::uint64_t arbWaitCycles = 0;
    std::uint64_t arbQueueFullRejects = 0;
    std::vector<std::uint64_t> coreGrants;
    std::vector<std::uint64_t> coreWaitCycles;
    std::vector<std::uint64_t> bankGrants;

    // Shared L2I (when enabled).
    std::uint64_t l2iHits = 0;
    std::uint64_t l2iMisses = 0;
    std::vector<std::uint64_t> l2iCoreHits;
    std::vector<std::uint64_t> l2iCoreMisses;

    /** Faults injected into the shared structures (the per-core
     * injectors report theirs in core[i].faultsInjected). */
    std::uint64_t faultsInjectedShared = 0;

    /** Fraction of granted row reads that hit a busy bank. */
    double
    conflictFraction() const
    {
        return arbGrants == 0 ? 0.0
                              : static_cast<double>(arbConflicts) /
                                        static_cast<double>(arbGrants);
    }
};

/** One scalar CMP sharing counter: its record field name and member. */
struct CmpCounter
{
    const char *name;
    std::uint64_t CmpResult::*member;
};

/** One per-core or per-bank CMP sharing counter vector. */
struct CmpCounterVector
{
    const char *name;
    std::vector<std::uint64_t> CmpResult::*member;
};

/** Every CMP-level counter (the per-core ones live in
 * cpu::kSimCounters), in sharing-record order. */
inline constexpr CmpCounter kCmpCounters[] = {
    {"arbRequests", &CmpResult::arbRequests},
    {"arbGrants", &CmpResult::arbGrants},
    {"arbConflicts", &CmpResult::arbConflicts},
    {"arbWaitCycles", &CmpResult::arbWaitCycles},
    {"arbQueueFullRejects", &CmpResult::arbQueueFullRejects},
    {"l2iHits", &CmpResult::l2iHits},
    {"l2iMisses", &CmpResult::l2iMisses},
    {"faultsInjectedShared", &CmpResult::faultsInjectedShared},
};

inline constexpr CmpCounterVector kCmpCounterVectors[] = {
    {"coreGrants", &CmpResult::coreGrants},
    {"coreWaitCycles", &CmpResult::coreWaitCycles},
    {"bankGrants", &CmpResult::bankGrants},
    {"l2iCoreHits", &CmpResult::l2iCoreHits},
    {"l2iCoreMisses", &CmpResult::l2iCoreMisses},
};

// As for cpu::kSimCounters: CmpResult is its core vector plus one
// member per row, so a sharing counter cannot miss the record.
static_assert(sizeof(CmpResult) ==
                      (1 + std::size(kCmpCounterVectors)) *
                                      sizeof(std::vector<std::uint64_t>) +
                              std::size(kCmpCounters) * sizeof(std::uint64_t),
              "every CmpResult counter needs a kCmpCounters row");

/** The first difference between @p a and @p b over every core's
 * counters (cpu::counterMismatch) and every sharing counter; empty
 * when they agree. */
std::string cmpMismatch(const CmpResult &a, const CmpResult &b);

/** One N-core machine, runnable over N traces (one per core). */
class CmpModel
{
  public:
    /** Builds p.cmp.cores cores.  When the BTB2 is enabled, the shared
     * array, its arbiter and (optionally) the shared L2I are built here
     * and wired into every core; fault injection covers them through a
     * CMP-owned injector so shared corruption happens once, not once
     * per core. */
    explicit CmpModel(const core::MachineParams &p);
    ~CmpModel();

    CmpModel(const CmpModel &) = delete;
    CmpModel &operator=(const CmpModel &) = delete;

    /** Simulate every core's trace to completion.  Equivalent to
     * beginRun(traces); advance(longest trace); finishRun(). */
    CmpResult run(const std::vector<const trace::Trace *> &traces);

    /** Arm a run: exactly cores() traces, each outliving the run.
     * Throws std::invalid_argument on a count mismatch or any empty
     * trace. */
    void beginRun(const std::vector<const trace::Trace *> &traces);

    /**
     * Step every unfinished core until it has decoded at least
     * min(@p decode_target, its trace length) instructions, in lockstep
     * windows of CmpParams::stepInsts.  Windows land on absolute
     * stepInsts boundaries, so the last one may overshoot the target by
     * up to stepInsts-1 instructions — that is what makes any monotone
     * target sequence bit-identical to a single full-length advance()
     * (unaligned stops would insert extra cross-core interleaving
     * points and change the shared-state access order).  Returns true
     * when every core's trace is fully decoded.
     */
    bool advance(std::size_t decode_target);

    /** Finish a fully-decoded run and collect the results. */
    CmpResult finishRun();

    unsigned cores() const { return static_cast<unsigned>(cs.size()); }

    /** Longest armed trace (the natural advance() completion target). */
    std::size_t maxInsts() const { return maxLen; }

    /** The common decode frontier (instructions) of the armed run. */
    std::size_t decodedWindow() const { return window; }

    /** True between beginRun() and finishRun(). */
    bool runInProgress() const { return runActive; }

    /** Serialize the whole CMP — window state, shared BTB2/arbiter/
     * L2I/injector, then every core — into @p w.  Valid only between
     * beginRun() and finishRun(). */
    void saveState(ckpt::Writer &w) const;

    /** Overwrite the armed run from a checkpoint (beginRun() with the
     * same traces first).  Throws ckpt::CkptError on mismatch or
     * corruption — the model is then half-restored and must be
     * discarded. */
    void restoreState(ckpt::Reader &r);
    cpu::CoreModel &core(unsigned i) { return *cs.at(i); }
    preload::Btb2Arbiter *arbiter() { return arb.get(); }
    btb::SetAssocBtb *sharedBtb2() { return btb2.get(); }
    cache::SharedL2I *sharedL2i() { return l2i.get(); }

    /** The injector covering the shared structures, or nullptr. */
    fault::FaultInjector *sharedFaultInjector() { return inj.get(); }

    /** Attach per-core read-only sidecars (see CoreModel). */
    void
    setTraceIndex(unsigned i, const trace::TraceIndex *idx)
    {
        cs.at(i)->setTraceIndex(idx);
    }
    void
    setDataMissMap(unsigned i, const std::vector<std::uint8_t> *map)
    {
        cs.at(i)->setDataMissMap(map);
    }

    /** Cooperative cancellation, polled by every core's run loop. */
    void
    setCancelFlag(const std::atomic<bool> *flag)
    {
        for (auto &c : cs)
            c->setCancelFlag(flag);
    }

    /** Attach interval sampling to every core (see CoreModel::attachObs;
     * the per-core `core` column keeps the sidecar rows apart).  Call
     * before beginRun(); null/0 detaches. */
    void attachObs(obs::IntervalWriter *w, std::uint64_t interval,
                   const std::string &config_name);

    /** Attach timeline tracing: every core's microarch lanes, plus
     * shared-structure lanes (arbiter waits, shared-fault instants) and
     * a runner-track lane carrying one span per advance() window batch.
     * Null detaches. */
    void attachTracer(obs::TraceWriter *t);

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    core::MachineParams prm;
    std::unique_ptr<btb::SetAssocBtb> btb2; ///< the shared second level
    std::unique_ptr<preload::Btb2Arbiter> arb;
    std::unique_ptr<cache::SharedL2I> l2i;  ///< null unless cmp.sharedL2i
    std::unique_ptr<fault::FaultInjector> inj; ///< shared-structure faults
    std::vector<std::unique_ptr<cpu::CoreModel>> cs;

    // Run state.
    std::vector<std::size_t> len;  ///< per-core trace length
    std::vector<bool> coreDone;
    std::size_t window = 0;        ///< common decode frontier
    std::size_t maxLen = 0;
    unsigned rot = 0;              ///< rotating window start core
    bool runActive = false;

    // Observability (null/0 = off; zero cost on the hot path).
    obs::TraceWriter *tracer = nullptr;
    std::uint32_t cmpLane = 0;     ///< runner-track lane for window spans
    bool injTraced = false;        ///< shared injector has a tracer lane
};

} // namespace zbp::sim

#endif // ZBP_SIM_CMP_CMP_MODEL_HH
