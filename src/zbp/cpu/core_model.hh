/**
 * @file
 * The cycle-driven zEC12-like core timing model.
 *
 * The model reproduces the paper's study methodology (§4): a trace of
 * retired instructions drives a core with finite L1 I-cache (everything
 * beyond is an infinite L2 with fixed latency), an asynchronous
 * lookahead first-level branch predictor, optional BTB2 bulk-transfer
 * machinery, a 16 B/cycle prediction-steered fetch stage, a 3-wide
 * decode, and fixed-depth resolution.  CPI differences between
 * configurations come from the same penalty categories the paper
 * analyzes: restart penalties for mispredictions, redirect penalties
 * for surprise-taken branches, and exposed I-cache misses.
 *
 * Wrong-path behaviour: after a wrong prediction the lookahead
 * predictor keeps searching from the wrong address (so wrong-path BTB2
 * transfers and pollution occur) until the resolve-time restart; fetch
 * idles from the wrong branch until the restart (wrong-path fetch
 * bytes are not modelled — see DESIGN.md).
 */

#ifndef ZBP_CPU_CORE_MODEL_HH
#define ZBP_CPU_CORE_MODEL_HH

#include <atomic>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>

#include "zbp/cache/icache.hh"
#include "zbp/cache/shared_l2i.hh"
#include "zbp/core/hierarchy.hh"
#include "zbp/core/params.hh"
#include "zbp/core/search_pipeline.hh"
#include "zbp/cpu/outcome.hh"
#include "zbp/preload/btb2_engine.hh"
#include "zbp/preload/sector_order_table.hh"
#include "zbp/trace/trace.hh"
#include "zbp/util/ring_buffer.hh"

namespace zbp::trace
{
class TraceIndex;
}

namespace zbp::obs
{
class IntervalSampler;
class IntervalWriter;
class TraceWriter;
}

namespace zbp::cpu
{

/**
 * Thrown by CoreModel::run when the cancellation flag wired in via
 * setCancelFlag flips to true (cooperative cancellation: the runner's
 * per-job timeout watchdog sets the flag, the run loop polls it).
 */
class SimCancelled : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Everything a simulation run reports. */
struct SimResult
{
    std::string traceName;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    double cpi = 0.0;

    std::uint64_t branches = 0;
    std::uint64_t takenBranches = 0;

    // Outcome taxonomy (Figure 4).
    std::uint64_t correct = 0;
    std::uint64_t mispredictDir = 0;
    std::uint64_t mispredictTarget = 0;
    std::uint64_t surpriseCompulsory = 0;
    std::uint64_t surpriseLatency = 0;
    std::uint64_t surpriseCapacity = 0;
    std::uint64_t surpriseBenign = 0;
    std::uint64_t phantoms = 0;

    // Machinery counters.
    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheMisses = 0;
    std::uint64_t dataAccesses = 0;
    std::uint64_t btb1MissReports = 0;
    std::uint64_t btb2RowReads = 0;
    std::uint64_t btb2Transfers = 0;
    std::uint64_t btb2FullSearches = 0;
    std::uint64_t btb2PartialSearches = 0;
    std::uint64_t predictionsMade = 0;
    std::uint64_t watchdogResets = 0;

    /** Branches whose resolve event was processed (every decoded branch
     * schedules exactly one; the invariant checker pins the identity). */
    std::uint64_t resolves = 0;

    /** Predictor-state faults actually injected (0 unless fault
     * injection was enabled in the machine parameters). */
    std::uint64_t faultsInjected = 0;

    /** Full text dump of every registered stat group. */
    std::string statsText;

    double
    badOutcomes() const
    {
        return static_cast<double>(mispredictDir + mispredictTarget +
                                   surpriseCompulsory + surpriseLatency +
                                   surpriseCapacity + phantoms);
    }

    double
    badFraction() const
    {
        const double b = static_cast<double>(branches);
        return b == 0.0 ? 0.0 : badOutcomes() / b;
    }
};

/** One SimResult counter: its record field name and its member. */
struct SimCounter
{
    const char *name;
    std::uint64_t SimResult::*member;
};

/**
 * Every SimResult counter, in record order: the one schema that JSONL
 * export and resume, the interval stitch and result comparison iterate.
 * A new counter is one new row here.  cpi (derived) and the text
 * fields are not counters.
 */
inline constexpr SimCounter kSimCounters[] = {
    {"cycles", &SimResult::cycles},
    {"instructions", &SimResult::instructions},
    {"branches", &SimResult::branches},
    {"takenBranches", &SimResult::takenBranches},
    {"correct", &SimResult::correct},
    {"mispredictDir", &SimResult::mispredictDir},
    {"mispredictTarget", &SimResult::mispredictTarget},
    {"surpriseCompulsory", &SimResult::surpriseCompulsory},
    {"surpriseLatency", &SimResult::surpriseLatency},
    {"surpriseCapacity", &SimResult::surpriseCapacity},
    {"surpriseBenign", &SimResult::surpriseBenign},
    {"phantoms", &SimResult::phantoms},
    {"icacheMisses", &SimResult::icacheMisses},
    {"dcacheMisses", &SimResult::dcacheMisses},
    {"dataAccesses", &SimResult::dataAccesses},
    {"btb1MissReports", &SimResult::btb1MissReports},
    {"btb2RowReads", &SimResult::btb2RowReads},
    {"btb2Transfers", &SimResult::btb2Transfers},
    {"btb2FullSearches", &SimResult::btb2FullSearches},
    {"btb2PartialSearches", &SimResult::btb2PartialSearches},
    {"predictionsMade", &SimResult::predictionsMade},
    {"watchdogResets", &SimResult::watchdogResets},
    {"resolves", &SimResult::resolves},
    {"faultsInjected", &SimResult::faultsInjected},
};

// A counter without a row would silently drop out of records, resume,
// the stitch and every comparison, so pin the table to the struct:
// SimResult is its two strings, cpi, and one u64 per row.
static_assert(sizeof(SimResult) ==
                      2 * sizeof(std::string) + sizeof(double) +
                              std::size(kSimCounters) * sizeof(std::uint64_t),
              "every SimResult counter needs a kSimCounters row");

/** The first difference between @p a and @p b over every counter and
 * the CPI bits, as "<name>: <a> != <b>"; empty when they agree. */
std::string counterMismatch(const SimResult &a, const SimResult &b);

/** Percent CPI improvement of @p test over @p base (positive = faster). */
double cpiImprovement(const SimResult &base, const SimResult &test);

/**
 * Self-consistency check over a finished run's counters: every branch
 * accounted for by exactly one outcome, every branch resolved, CPI
 * consistent with cycles/instructions.  Returns an empty string when
 * all invariants hold, else a description of the first violation.
 * CoreModel::run calls this and throws std::logic_error on violation —
 * injected faults may only surface as extra mispredicts or preload
 * waste, never as books that don't balance.
 */
std::string simInvariantError(const SimResult &r);

/**
 * CMP wiring handed to a core at construction.  All pointed-to
 * structures are owned by sim::CmpModel and shared between its cores;
 * every member null (the default) gives the private single-core
 * machine.  With a shared BTB2 the core builds no private one, routes
 * its engine's row reads through the arbiter as @p coreId, and leaves
 * the shared structures' fault wiring and reset to their owner.
 */
struct SharedCoreContext
{
    btb::SetAssocBtb *btb2 = nullptr;
    preload::Btb2Arbiter *arbiter = nullptr;
    cache::SharedL2I *l2i = nullptr;
    unsigned coreId = 0;
};

/** One simulated machine, runnable over one trace. */
class CoreModel
{
  public:
    explicit CoreModel(const core::MachineParams &p,
                       const SharedCoreContext &shared = {});
    ~CoreModel();

    CoreModel(const CoreModel &) = delete;
    CoreModel &operator=(const CoreModel &) = delete;

    /** Simulate @p t to completion and return the results.
     * Throws std::invalid_argument on an empty trace, SimCancelled if
     * the cancel flag fires, std::runtime_error if the model wedges,
     * and std::logic_error if the result violates its invariants.
     * Equivalent to beginRun(t); advance(t.size()); finishRun(). */
    SimResult run(const trace::Trace &t);

    // ---- chunked execution (gang-interleaved sweeps) ----------------
    //
    // beginRun + any partition of [0, t.size()) into monotone
    // advance() targets + finishRun composes to exactly run(): the
    // loop-state lives in members, so splitting the run loop at decode
    // boundaries changes nothing observable (golden counters pin it).
    // The runner's walk advances every job in chunks, and a gang
    // interleaves the chunks of several models over one trace so each
    // chunk of instructions is consumed LLC-hot by all of them.

    /** Arm a run over @p t (which must outlive it).  Throws
     * std::invalid_argument on an empty trace or a mismatched index. */
    void beginRun(const trace::Trace &t);

    /** Simulate until at least @p decode_target instructions have been
     * decoded (clamped to the trace length).  Returns true when the
     * whole trace has been decoded.  Throws as run() does. */
    bool advance(std::size_t decode_target);

    /** Finish an armed run whose trace is fully decoded and return the
     * results (post-run accounting, invariant check, optional stats). */
    SimResult finishRun();

    // ---- functional warm-up mode (sampled simulation) ---------------
    //
    // advanceFunctional runs the very decode step advance() runs (SOT
    // tracking, outcome books, training, surprise handling, operand
    // accesses) with no per-cycle tick, substituting three things:
    // predictions come from a first-level search at decode instead of
    // the lookahead queue, resolve-time training and restarts apply at
    // once instead of being queued, and a stall adds an *estimate* to
    // `cycle` instead of blocking decode and fetch.  A surprise also
    // bulk-preloads at once (no tracker pipeline).  So predictor/BTB/
    // cache *content* tracks a detailed run closely at an order of
    // magnitude higher instruction rate.  Nothing is left in flight, so
    // saveState() snapshots taken between calls restore into a detailed
    // run cleanly.  Golden counters pin this path as they pin advance().

    /**
     * Functionally execute until @p decode_target instructions have
     * been decoded (clamped to the trace length); returns true when the
     * whole trace is decoded.  Requires a drained machine: call it only
     * after beginRun() or a previous advanceFunctional(), never after a
     * detailed advance() mid-trace (throws std::logic_error on in-
     * flight state, CMP-shared structures, or fault injection — all
     * timing-coupled).  Throws SimCancelled like advance().
     */
    bool advanceFunctional(std::size_t decode_target);

    /**
     * The counters of the armed run so far, as a SimResult (cycles and
     * instructions reflect the current cursor; no pending-resolve
     * adjustment, no invariant check, no stats text).  Interval
     * stitching subtracts two of these: every counter is monotone, so
     * fieldwise deltas over an exact tiling telescope to the monolithic
     * result.
     */
    SimResult interimResult() const;

    /** Instructions decoded so far in the armed run (the advance()
     * progress cursor; checkpointing keys on it). */
    std::size_t decodedInstructions() const { return decodeIdx; }

    /** True between beginRun() and finishRun(). */
    bool runInProgress() const { return runActive; }

    /**
     * Serialize the complete mid-run machine state — pipeline cursors,
     * every predictor structure, caches, preload machinery, outcome
     * books — into @p w.  Valid only between beginRun() and
     * finishRun().  CMP-shared structures (BTB2/arbiter/L2I) are saved
     * by their owner, not here.
     */
    void saveState(ckpt::Writer &w) const;

    /**
     * Overwrite the armed run's state from a checkpoint.  Call
     * beginRun() with the same trace first; on success the model
     * continues exactly as the saved machine would have.  Throws
     * ckpt::CkptError on a corrupt or mismatched checkpoint — the
     * model is then half-restored and must be discarded.
     */
    void restoreState(ckpt::Reader &r);

    /** Does nothing: kept only for the benchmark harness's calls (see
     * zbp/trace/trace_index.hh). */
    void setTraceIndex(const trace::TraceIndex *) {}

    /**
     * Share a precomputed L1 D-cache outcome map (cache::
     * computeDataMissMap over the same trace and this machine's dcache
     * geometry; nullptr to detach).  Operand stalls always come from a
     * map: without a shared one, beginRun() computes the model's own.
     * The map is read by absolute trace position, and only as far as
     * decode has reached, so it may still be filling beyond that point.
     * beginRun() rejects a size mismatch.
     */
    void
    setDataMissMap(const std::vector<std::uint8_t> *map)
    {
        sharedDmiss = map;
    }

    /**
     * Cooperative cancellation: the run loop polls @p flag (every few
     * thousand iterations — cheap) and throws SimCancelled when it
     * reads true.  Pass nullptr to detach.  The flag must outlive every
     * subsequent run() call.
     */
    void setCancelFlag(const std::atomic<bool> *flag) { cancel = flag; }

    /** The fault injector, or nullptr when injection is disabled. */
    fault::FaultInjector *faultInjector() { return inj.get(); }

    /**
     * Attach interval sampling: every @p interval decoded instructions
     * the canonical probe set (CPI inputs, BTB1/BTB2 activity, SOT and
     * cache hit rates, arbiter contention, faults) is delta-sampled
     * into @p w under (trace, @p config_name, core id).  The probe set
     * is fixed — components this machine lacks report 0 — so every row
     * in a sidecar has the same columns.  Probes are read-only: counters
     * stay bit-identical with sampling on.  Null @p w or 0 @p interval
     * detaches.  Call before beginRun().
     */
    void attachObs(obs::IntervalWriter *w, std::uint64_t interval,
                   const std::string &config_name);

    /**
     * Attach the obs timeline: the engine's preload searches and the
     * fault injector's applied faults get lanes on the microarch track
     * ("core<id> preload" / "core<id> faults").  The CMP-shared
     * arbiter's lane is wired by its owner.  Null detaches.
     */
    void attachTracer(obs::TraceWriter *t);

    /** Component access for white-box tests. */
    core::BranchPredictorHierarchy &hierarchy() { return *bp; }
    core::SearchPipeline &pipeline() { return *pipe; }
    preload::Btb2Engine *engine() { return eng.get(); }
    cache::ICache &icache() { return *l1i; }
    preload::SectorOrderTable &sot() { return *sotTable; }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    struct FetchedInst
    {
        std::size_t idx;
        Cycle ready;
    };

    enum class FetchStall : std::uint8_t
    {
        kNone,
        kWaitPrediction, ///< taken branch, no usable prediction yet
        kWaitResume,     ///< wrong path / redirect: resume cycle pending
    };

    struct ResolveEvent
    {
        Cycle at;
        enum class Kind : std::uint8_t
        {
            kPredicted,
            kSurprise,
            kRestart,
        } kind;
        core::Prediction pred;   ///< kPredicted
        Addr ia = 0;             ///< kSurprise
        trace::InstKind ikind = trace::InstKind::kNonBranch;
        bool taken = false;
        Addr target = kNoAddr;
        Addr restartAddr = 0;    ///< kRestart
    };

    /** What the prediction source found for an instruction. */
    enum class PredictionFor : std::uint8_t
    {
        kNone,    ///< no usable prediction: a branch is a surprise
        kFound,   ///< a prediction for this branch
        kFlushed, ///< a taken phantom restarted the front end instead
    };

    // The front-end restart sequence (search pipeline, speculative
    // history, the restart stamp surprise classification reads).
    void restartFrontEnd(Addr addr, Cycle at);

    // Resolve-time effects: applyResolve is the one place training and
    // restarts land; resolveLater queues (detailed) or applies at once
    // (functional, handing over the probe's slot as @p found).
    void applyResolve(const ResolveEvent &ev,
                      const core::Candidate *found = nullptr);
    void resolveLater(ResolveEvent &ev);
    void resolveBranch(const trace::Instruction &inst,
                       const core::Prediction *p);
    void scheduleRestart(Addr addr);

    // advance()'s stages, in loop order.
    void pollCancel();
    void faultTick();
    void processEvents();
    void searchTick();
    void engineTick();
    void fetchTick();
    void decodeTick();
    void obsTick();
    void watchdogTick();
    void watchdogReset();
    void nextCycle();
    std::string cancelledMessage() const;
    std::string wedgedMessage() const;

    /** Fetch's I-cache access for the lines of @p inst from line
     * @p from on, each at the current cycle, skipping the line touched
     * last (a one-entry filter).  Stops at the first miss and returns
     * that line; kNoAddr when every line hit. */
    Addr fetchLines(const trace::Instruction &inst, Addr from);

    // The decode step, shared by both modes.
    void decodeOne(const trace::Instruction &inst);
    // The prediction source: a first-level search at decode
    // (functional) or the front of the lookahead queue (detailed).
    PredictionFor searchPrediction(const trace::Instruction &inst,
                                   core::Prediction &out);
    PredictionFor takePrediction(const trace::Instruction &inst,
                                 core::Prediction &out);
    void decodePredicted(const trace::Instruction &inst,
                         const core::Prediction &p);
    void decodeSurprise(const trace::Instruction &inst);
    bool bookSurprise(const trace::Instruction &inst, bool late_prediction);
    Outcome classifySurprise(const trace::Instruction &inst);
    void applySurpriseTiming(const trace::Instruction &inst, bool guess);

    // What a stall costs: the only timing the modes do differently.
    void stallDecodeUntil(Cycle until);
    void redirectAtDecode(Addr addr);
    void restartAtResolve(Addr addr, Cycle decode_stall);
    void refetchFromDecode(FetchStall stall, Cycle resume_at);
    void functionalResync();

    /**
     * Idle-skip support: the earliest cycle after @p now at which any
     * tick can change state, clamped so the run loop's forward-progress
     * watchdog still fires at its exact per-cycle-loop cycle.  Skipping
     * straight to this cycle is observationally equivalent to ticking
     * through the quiescent cycles in between.
     */
    Cycle nextWakeAt(Cycle now, Cycle last_progress_at) const;

    /** Every counter of the armed run at the decode cursor. */
    SimResult countersSoFar() const;

    /** Queue index of the first prediction fetch has not consumed. */
    std::size_t firstUnconsumedPred() const;

    /** The next prediction fetch has not yet consumed (the prediction
     * stream is consumed strictly in emission order). */
    const core::Prediction *nextFetchPred() const;

    /** First unconsumed prediction whose address is exactly @p ia. */
    const core::Prediction *findFetchPredFor(Addr ia) const;

    core::MachineParams prm;
    std::unique_ptr<core::BranchPredictorHierarchy> bp;
    std::unique_ptr<cache::ICache> l1i;
    std::unique_ptr<preload::SectorOrderTable> sotTable;
    std::unique_ptr<preload::Btb2Engine> eng;
    std::unique_ptr<core::SearchPipeline> pipe;
    std::unique_ptr<fault::FaultInjector> inj; ///< null = injection off
    cache::SharedL2I *sharedL2i = nullptr; ///< CMP-shared; null = infinite L2
    preload::Btb2Arbiter *sharedArb = nullptr; ///< CMP-shared; probes only
    unsigned sharedCoreId = 0;             ///< this core's id at the L2I
    const std::atomic<bool> *cancel = nullptr;

    // Observability (all null/false unless explicitly attached).
    std::unique_ptr<obs::IntervalSampler> smp;
    std::string obsConfigName;
    obs::TraceWriter *tracer = nullptr;
    bool injTraced = false; ///< inj needs noteCycle() each iteration

    // Run state.
    const trace::Trace *tr = nullptr;
    std::size_t fetchIdx = 0;
    std::size_t decodeIdx = 0;
    RingBuffer<FetchedInst> fetchBuf;
    FetchStall fetchStall = FetchStall::kNone;
    Cycle fetchResumeAt = kNoCycle;
    Cycle fetchBlockedUntil = 0; ///< I-cache miss wait
    Addr lastFetchLine = kNoAddr; ///< one-entry line access filter
    std::uint64_t fetchSeqCursor = 0; ///< last prediction seq fetch used
    Cycle decodeBlockedUntil = 0;
    Cycle lastRestartCycle = 0;
    RingBuffer<ResolveEvent> events{64};
    OutcomeTracker outcomes;
    std::uint64_t nTaken = 0;
    std::uint64_t nBranches = 0;
    std::uint64_t nDataAccesses = 0;
    stats::Counter nDataMisses; ///< the L1 D-cache's misses (dmiss)
    std::uint64_t nWatchdogResets = 0;
    std::uint64_t nResolves = 0;

    // The L1 D-cache outcome map: shared (setDataMissMap) or the
    // model's own; dmiss points at the armed run's.
    const std::vector<std::uint8_t> *sharedDmiss = nullptr;
    std::vector<std::uint8_t> ownDmiss;
    const std::uint8_t *dmiss = nullptr;

    // Chunked-run loop state (the former run() locals; valid between
    // beginRun and finishRun so advance() can resume mid-trace).
    Cycle cycle = 0;
    Cycle maxCycles = 0;
    Cycle lastProgressAt = 0;
    std::size_t lastDecodeIdx = 0;
    std::uint64_t cancelPoll = 0;
    bool runActive = false;
    /** Control-flow successor of the instruction being decoded. */
    Addr curNextIa = 0;
    /** Inside advanceFunctional(): the decode step takes its
     * predictions from a first-level search, trains at once, and
     * spends stall cycles as estimates instead of blocking. */
    bool functional = false;
    /** Functional mode: the first-level hit the branch being decoded
     * was predicted from; its immediate resolve trains that slot. */
    core::Candidate probed{};
};

} // namespace zbp::cpu

#endif // ZBP_CPU_CORE_MODEL_HH
