/**
 * @file
 * The asynchronous lookahead first-level search pipeline (paper §3.2).
 *
 * The pipeline searches the BTB1 and BTBP asynchronously from (and
 * usually ahead of) instruction fetch.  One search step models the
 * b0..b6 pipeline of Table 1; the model is transaction-level: each
 * search step executes atomically at its b0 cycle and schedules its
 * broadcast and re-index cycles according to the Table 1 timing rules:
 *
 *   - taken prediction, single-branch loop   : next b0 +1 cycle
 *   - taken prediction under FIT control     : next b0 +2 cycles
 *   - taken prediction from the MRU column   : next b0 +3 cycles
 *   - taken prediction otherwise             : next b0 +4 cycles
 *   - up to 2 not-taken predictions per row  : next b0 +5 cycles
 *   - 1 not-taken prediction                 : next b0 +4 cycles
 *   - nothing found: 3 back-to-back sequential searches then 3 dead
 *     cycles (16 B/cycle average search rate)
 *
 * Miss detection (§3.4, Table 2): after missSearchLimit consecutive
 * fruitless searches the miss is reported at the *starting* search
 * address of the run, at the b3 cycle of the last search.
 */

#ifndef ZBP_CORE_SEARCH_PIPELINE_HH
#define ZBP_CORE_SEARCH_PIPELINE_HH

#include "zbp/ckpt/ckpt.hh"
#include "zbp/core/hierarchy.hh"
#include "zbp/core/params.hh"
#include "zbp/core/prediction.hh"
#include "zbp/preload/miss_sink.hh"
#include "zbp/stats/stats.hh"
#include "zbp/util/ring_buffer.hh"

namespace zbp::core
{

/** The first-level search pipeline / prediction producer. */
class SearchPipeline
{
  public:
    SearchPipeline(const SearchParams &p, BranchPredictorHierarchy &bp,
                   preload::MissSink *miss_sink);

    /** (Re)start searching at @p addr; b0 of the first search is @p now.
     * Flushes all queued, not-yet-consumed predictions. */
    void restart(Addr addr, Cycle now);

    /** Stop searching (between runs). */
    void halt();

    /** Serialize queue + search cursor + counters into one checkpoint
     * section. */
    void saveState(ckpt::Writer &w) const;

    /** Overwrite from a checkpoint section; throws ckpt::CkptError on
     * out-of-range stored state. */
    void restoreState(ckpt::Reader &r);

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Earliest future cycle at which tick() can act: the next b0 slot,
     * or kNoCycle when halted.  While the prediction queue is full
     * this value sits in the past on purpose — the queue-full stall is
     * counted per cycle, so the caller must not skip any cycle then.
     */
    Cycle
    nextEventAt() const
    {
        return searching ? nextSearchAt : kNoCycle;
    }

    /** Broadcast predictions in program order, oldest first. */
    RingBuffer<Prediction> &queue() { return preds; }

    bool active() const { return searching; }
    Addr searchAddress() const { return searchAddr; }

    std::uint64_t missReportCount() const { return nMissReports.value(); }
    std::uint64_t
    predictionCount() const
    {
        return nTaken.value() + nNotTaken.value();
    }
    std::uint64_t searchCount() const { return nSearches.value(); }

    void
    registerStats(stats::Group &g) const
    {
        g.add("searches", nSearches, "row searches performed");
        g.add("fruitless", nFruitless, "searches finding no branch");
        g.add("takenPreds", nTaken, "taken predictions broadcast");
        g.add("notTakenPreds", nNotTaken, "not-taken predictions");
        g.add("missReports", nMissReports, "BTB1 misses reported");
        g.add("fitAccels", nFitAccel, "FIT-accelerated re-indexes");
        g.add("queueFullStalls", nQueueFull,
              "cycles stalled on the prediction queue");
    }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    void doSearch(Cycle now);

    SearchParams prm;
    BranchPredictorHierarchy &bp;
    preload::MissSink *sink;

    RingBuffer<Prediction> preds;
    std::uint64_t nextSeq = 1; // 0 reserved: "nothing consumed" cursor

    bool searching = false;
    Addr searchAddr = 0;
    Cycle nextSearchAt = 0;
    unsigned seqBurstCount = 0;   ///< sequential searches in current burst
    unsigned fruitlessRun = 0;    ///< consecutive fruitless searches
    Addr runStartAddr = 0;        ///< first address of the fruitless run

    stats::Counter nSearches;
    stats::Counter nFruitless;
    stats::Counter nTaken;
    stats::Counter nNotTaken;
    stats::Counter nMissReports;
    stats::Counter nFitAccel;
    stats::Counter nQueueFull;
};

} // namespace zbp::core

#endif // ZBP_CORE_SEARCH_PIPELINE_HH
