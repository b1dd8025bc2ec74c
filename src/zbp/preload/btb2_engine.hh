/**
 * @file
 * The BTB2 search engine: trackers, filtering, steering and the bulk
 * transfer pipeline (paper §3.5-3.7).
 *
 * Three (configurable) search trackers each remember one 4 KB block of
 * address space together with a BTB1-miss-valid bit and an
 * instruction-cache-miss-valid bit:
 *
 *  - both bits valid  -> fully active: read all 128 BTB2 rows of the
 *    block in the order supplied by the Sector Order Table;
 *  - only the BTB1 miss bit -> partial search of the 4 rows (128 bytes)
 *    at the miss address; if the I-cache bit is still invalid when the
 *    partial search completes, the tracker is invalidated (the perceived
 *    miss was probably branchless code, not a capacity miss);
 *  - only the I-cache bit -> no search is initiated (the tracker waits
 *    for a BTB1 miss to pair with).
 *
 * Timing: a search may start no earlier than 7 cycles after the miss
 * report (b10 vs b3); the BTB2 pipeline is 8 cycles deep and accepts one
 * row read per cycle, so a full 4 KB transfer takes 128 + 8 = 136
 * cycles.  All tag-matching branches read from a row are written into
 * the BTBP (and demoted to LRU in the BTB2 — semi-exclusivity).
 */

#ifndef ZBP_PRELOAD_BTB2_ENGINE_HH
#define ZBP_PRELOAD_BTB2_ENGINE_HH

#include <array>
#include <map>
#include <vector>

#include "zbp/btb/set_assoc_btb.hh"
#include "zbp/cache/icache.hh"
#include "zbp/preload/btb2_arbiter.hh"
#include "zbp/preload/miss_sink.hh"
#include "zbp/preload/sector_order_table.hh"
#include "zbp/stats/stats.hh"
#include "zbp/util/ring_buffer.hh"

namespace zbp::preload
{

/** Knobs of the second-level transfer machinery. */
struct Btb2EngineParams
{
    unsigned numTrackers = 3;        ///< Fig. 7 sweep
    unsigned partialSectors = 1;     ///< 128 B (paper §3.5)
    unsigned startDelay = 7;         ///< b3 -> b10 (paper §3.6)
    unsigned pipeDepth = 8;          ///< BTB2 read pipeline depth
    bool icacheFilter = true;        ///< §3.5 filter (ablation knob)
    bool semiExclusive = true;       ///< §3.3 LRU demotion on hits

    /** Cycles between BTB2 row reads.  1 models the paper's SRAM
     * (one row per cycle); larger values model the §6 future-work
     * eDRAM second level with its slower random access. */
    unsigned rowReadInterval = 1;

    /** §6 future work: after a full block transfer, chain one more
     * fully-active search for the block most referenced by the
     * transferred branch targets. */
    bool multiBlockTransfer = false;
    unsigned maxChainedBlocks = 1;   ///< chain depth bound per miss
};

/** Remaining row addresses of one tracker's search, read head first.
 * Fixed capacity: a full block schedule is kBlockBytes / rowBytes rows
 * and rowBytes is at least 32, so 128 entries always suffice. */
class RowSchedule
{
  public:
    static constexpr unsigned kCapacity = kBlockBytes / 32;

    bool empty() const { return head == n; }
    std::size_t size() const { return n - head; }
    Addr front() const { return rows[head]; }
    void pop_front() { ++head; }

    void
    push_back(Addr a)
    {
        ZBP_ASSERT(n < kCapacity, "row schedule overflow");
        rows[n++] = a;
    }

    void
    clear()
    {
        head = 0;
        n = 0;
    }

    /** Checkpoint the remaining rows (ckpt.hh field verbs): a count
     * within the capacity, then each row from the front. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        const std::size_t rows = io.count32(s.size());
        io.check(rows <= kCapacity, "row schedule too long");
        if constexpr (Io::kReading) {
            s.head = 0;
            s.n = static_cast<unsigned>(rows);
        }
        for (std::size_t i = 0; i < rows; ++i)
            io.u64(s.rows[s.head + i]);
    }

  private:
    std::array<Addr, kCapacity> rows;
    unsigned head = 0;
    unsigned n = 0;
};

/** One 4 KB-block search tracker. */
struct Tracker
{
    enum class Phase : std::uint8_t
    {
        kIdle,     ///< unallocated
        kWaiting,  ///< allocated, search not yet startable/started
        kPartial,  ///< running the 4-row partial search
        kFull,     ///< running the steered 128-row search
    };

    Phase phase = Phase::kIdle;
    Addr block = 0;          ///< 4 KB block number
    Addr missAddr = 0;       ///< BTB1 miss address within the block
    bool btb1MissValid = false;
    bool icMissValid = false;
    Cycle startableAt = 0;   ///< earliest cycle a read may issue
    Cycle searchStartAt = 0; ///< cycle the current phase's search began
                             ///< (timeline spans only; no timing role)
    /** Scheduled row addresses remaining to read. */
    RowSchedule schedule;
    /** Rows read so far in the current phase. */
    unsigned rowsDone = 0;
    /** Multi-block chaining depth (0 = demand-allocated tracker). */
    unsigned chainDepth = 0;
    /** Per-target-block reference votes for multi-block chaining. */
    std::map<Addr, unsigned> targetBlocks;

    bool active() const { return phase != Phase::kIdle; }
};

/** The engine: owns the trackers and drives the BTB2 read port. */
class Btb2Engine : public MissSink
{
  public:
    Btb2Engine(const Btb2EngineParams &p, btb::SetAssocBtb &btb2,
               btb::SetAssocBtb &btbp, SectorOrderTable &sot,
               const cache::ICache &icache);

    /** MissSink: BTB1 miss reported by the search pipeline. */
    void noteBtb1Miss(Addr miss_addr, Cycle now) override;

    /** Fetch-side notification: an L1I miss occurred at @p addr. */
    void noteICacheMiss(Addr addr, Cycle now);

    /** Advance one cycle: issue at most one BTB2 row read and retire
     * reads whose pipeline latency has elapsed (writing hits into the
     * BTBP). */
    void tick(Cycle now);

    /**
     * Functional warm-up: compress the whole miss-report -> tracker ->
     * bulk-transfer flow for a BTB1 miss at @p miss_addr into one call.
     * The same rows the detailed machinery would eventually read are
     * read now (full steered search when the I-cache recently missed in
     * the block — judged directly from the I-cache, bypassing the
     * trackers — else the partial sector search), every hit lands in
     * the BTBP immediately, and the same row-read/hit/search counters
     * advance.  No tracker is allocated and no pipeline entry is
     * queued, so the engine stays quiescent and serializable between
     * calls.  No arbiter support (CMP mode is detailed-only); the
     * transfer-path fault hook is not exercised.
     */
    void functionalPreload(Addr miss_addr, Cycle now);

    /**
     * Earliest future cycle at which tick() can change state: the next
     * pipeline retirement, the earliest activation of a waiting
     * tracker, or the read-port cadence while a search has rows left.
     * kNoCycle when fully quiescent.  Externally-driven transitions
     * (noteBtb1Miss / noteICacheMiss) are the callers' wake-ups.
     *
     * Pure over the engine state, which only tick, the miss
     * notifications, and reset mutate; the core's run loop polls this
     * every cycle, so the tracker scan is cached between mutations.
     */
    Cycle
    nextEventAt() const
    {
        if (nextEventStale) {
            cachedNextEvent = computeNextEventAt();
            nextEventStale = false;
        }
        return cachedNextEvent;
    }

    /** Drop all in-flight state (machine restart between runs). */
    void reset();

    /** Serialize trackers, pipeline and counters into one checkpoint
     * section. */
    void saveState(ckpt::Writer &w) const;

    /** Overwrite from a checkpoint section; throws ckpt::CkptError on
     * mismatch or out-of-range stored state. */
    void restoreState(ckpt::Reader &r);

    /**
     * Wire the bulk-transfer path into @p inj as Site::kTransfer: each
     * entry retired from the read pipe into the BTBP is an injection
     * opportunity (the in-flight copy is dropped or target-flipped; the
     * BTB2's own rows are covered separately via Site::kBtb2).
     */
    void attachFaultInjector(fault::FaultInjector &inj);

    /**
     * CMP mode: route every row read through @p a as core @p core.  The
     * arbiter may delay a read (bank busy: the read issues at the
     * granted slot and the cadence stretches accordingly) or reject it
     * (bank queue full: the read is held and re-requested — delayed,
     * never dropped).  Null (the default) restores the private,
     * conflict-free read port.
     */
    void
    setArbiter(Btb2Arbiter *a, unsigned core)
    {
        arb = a;
        coreId = core;
    }

    /** Attach the obs timeline: each partial/full search becomes a
     * complete span on lane @p lane of the microarch track (the bulk
     * transfer it drives shares the span).  Timing and counters are
     * unaffected. */
    void
    setTracer(obs::TraceWriter *t, std::uint32_t lane)
    {
        tracer = t;
        laneId = lane;
    }

    const std::vector<Tracker> &trackers() const { return trk; }

    void
    registerStats(stats::Group &g) const
    {
        g.add("missReports", nMissReports, "BTB1 misses reported");
        g.add("icacheReports", nIcReports, "I-cache misses reported");
        g.add("trackersAllocated", nAlloc, "trackers allocated");
        g.add("trackerDropsBusy", nDropBusy,
              "miss reports dropped: all trackers busy");
        g.add("fullSearches", nFull, "full 4 KB searches started");
        g.add("partialSearches", nPartial, "partial searches started");
        g.add("partialAbandoned", nPartialAbandoned,
              "partial searches invalidated (no I-cache miss)");
        g.add("partialUpgraded", nPartialUpgraded,
              "partial searches upgraded to full");
        g.add("rowReads", nRowReads, "BTB2 row reads issued");
        g.add("hitsTransferred", nHits, "branches bulk-moved to the BTBP");
        g.add("chainedBlocks", nChained,
              "multi-block follow-on searches started");
    }

    std::uint64_t hitsTransferred() const { return nHits.value(); }
    std::uint64_t rowReads() const { return nRowReads.value(); }
    std::uint64_t fullSearchCount() const { return nFull.value(); }
    std::uint64_t partialSearchCount() const { return nPartial.value(); }
    std::uint64_t missReportsSeen() const { return nMissReports.value(); }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    Tracker *findTracker(Addr block);
    Tracker *allocTracker(Addr block);
    Cycle computeNextEventAt() const;
    void startSearch(Tracker &t, Cycle now);
    void scheduleFull(Tracker &t);
    void finishTracker(Tracker &t, Cycle now);
    void traceSearch(const Tracker &t, Cycle now, const char *kind,
                     const char *end);

    /** BTB2 rows per 128 B sector (depends on the configured BTB2
     * congruence class width, §6 future work). */
    unsigned rowsPerSector() const;

    Btb2EngineParams prm;
    btb::SetAssocBtb &btb2;
    btb::SetAssocBtb &btbp;
    SectorOrderTable &sot;
    const cache::ICache &icache;

    std::vector<Tracker> trk;
    /** In-flight row reads: retire cycle + the entries read.  One row
     * yields at most one entry per way, so the payload is inline. */
    struct PendingWrite
    {
        Cycle due;
        std::array<btb::BtbEntry, btb::kMaxBtbWays> entries;
        unsigned n = 0;
    };
    RingBuffer<PendingWrite> pipe{16};
    unsigned rrNext = 0; ///< round-robin cursor over trackers
    Btb2Arbiter *arb = nullptr; ///< shared read port (CMP); null = private
    unsigned coreId = 0;        ///< this engine's id at the arbiter
    fault::FaultInjector *faults = nullptr; ///< null = injection off
    obs::TraceWriter *tracer = nullptr;     ///< null = tracing off
    std::uint32_t laneId = 0;
    /** The in-flight entry the kTransfer callback corrupts (set only
     * around the onAccess call in tick()). */
    btb::BtbEntry *transferCursor = nullptr;

    stats::Counter nMissReports;
    stats::Counter nIcReports;
    stats::Counter nAlloc;
    stats::Counter nDropBusy;
    stats::Counter nFull;
    stats::Counter nPartial;
    stats::Counter nPartialAbandoned;
    stats::Counter nPartialUpgraded;
    Cycle nextReadAt = 0; ///< eDRAM cadence gate
    mutable Cycle cachedNextEvent = 0;   ///< memoized computeNextEventAt()
    mutable bool nextEventStale = true;  ///< set by every state mutation

    stats::Counter nRowReads;
    stats::Counter nHits;
    stats::Counter nChained;
};

} // namespace zbp::preload

#endif // ZBP_PRELOAD_BTB2_ENGINE_HH
