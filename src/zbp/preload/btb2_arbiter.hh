/**
 * @file
 * Btb2Arbiter — the shared read port of a CMP's single BTB2.
 *
 * In the CMP model N cores each run their own Btb2Engine (trackers,
 * steering, transfer pipeline), but all of them read rows of ONE shared
 * BTB2.  The array is banked on low row-index bits; each bank accepts
 * one row read per cycle.  A core asking for a row in a busy bank is
 * queued: the request is granted at the bank's next free slot, the
 * requesting engine stretches its read cadence by the wait, and the
 * wait is accounted as a bank conflict.  A bank whose backlog exceeds
 * the queue depth rejects the request outright with a retry hint — the
 * engine holds the read and asks again, so bulk transfers are delayed,
 * never dropped, by contention.
 *
 * Arbitration policies:
 *  - kFcfs: first-come-first-served reservation.  The grant slot is
 *    max(now, bank free time); ties are impossible because the CMP
 *    steps cores deterministically, so arrival order is total.
 *  - kTdm: time-division multiplexing for hard per-core fairness: core
 *    c may only occupy slots with slot % cores == c, so one core's
 *    transfer burst cannot starve another's partial search (at the cost
 *    of leaving slots idle).
 *
 * Clock domain caveat (see DESIGN.md §9): each core has its own cycle
 * counter and the CMP synchronizes them only at instruction-window
 * granularity, so bank free times mix loosely-aligned clocks.  The
 * conflict model is therefore statistical, not cycle-faithful — like
 * the rest of the model, only *relative* effects are meaningful.
 */

#ifndef ZBP_PRELOAD_BTB2_ARBITER_HH
#define ZBP_PRELOAD_BTB2_ARBITER_HH

#include <cstdint>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/types.hh"
#include "zbp/stats/stats.hh"

namespace zbp::obs
{
class TraceWriter;
}

namespace zbp::preload
{

/** Per-core fairness policy of the shared BTB2 read port. */
enum class ArbPolicy : std::uint8_t
{
    kFcfs, ///< first-come reservation (default)
    kTdm,  ///< time-division: core c owns slots with slot % cores == c
};

/** Geometry and policy of the shared-BTB2 arbiter. */
struct Btb2ArbiterParams
{
    unsigned cores = 1;
    unsigned banks = 1;        ///< power of two, low row-index bits
    unsigned queueDepth = 8;   ///< max cycles of backlog a bank queues
    ArbPolicy policy = ArbPolicy::kFcfs;
};

/** Outcome of one read request. */
struct RowGrant
{
    bool granted = false;
    Cycle at = 0;      ///< slot the read occupies (>= request time)
    Cycle retryAt = 0; ///< when to re-request after a queue-full reject
};

class Btb2Arbiter
{
  public:
    /** @p btb2_row_bytes maps row addresses to row indices (the same
     * congruence-class width the shared BTB2 was built with). */
    Btb2Arbiter(const Btb2ArbiterParams &p, std::uint32_t btb2_row_bytes);

    /**
     * Ask for a read slot for @p row on behalf of @p core at local time
     * @p now.  Single-core single-bank invariant: an engine whose reads
     * are at least one cycle apart is always granted at `now` with zero
     * wait — the arbiter is then observationally absent (the N=1
     * golden-counter equivalence test pins this).
     */
    RowGrant requestRead(unsigned core, Addr row, Cycle now);

    /** Attach the obs timeline: bank waits become spans and queue-full
     * rejects instants on lane @p lane of the microarch track.  Grant
     * timing and counters are unaffected. */
    void
    setTracer(obs::TraceWriter *t, std::uint32_t lane)
    {
        tracer = t;
        laneId = lane;
    }

    /** Drop all reservations and counters (fresh machine). */
    void reset();

    /** Serialize reservations + counters into one checkpoint section. */
    void saveState(ckpt::Writer &w) const;

    /** Overwrite from a checkpoint section; throws ckpt::CkptError on a
     * geometry mismatch. */
    void restoreState(ckpt::Reader &r);

    const Btb2ArbiterParams &params() const { return prm; }
    unsigned bankOf(Addr row) const
    {
        return static_cast<unsigned>(row >> rowShift) & (prm.banks - 1);
    }

    // --- sharing statistics -----------------------------------------
    std::uint64_t requests() const { return nRequests.value(); }
    std::uint64_t grants() const { return nGrants.value(); }
    /** Grants that had to wait for a busy bank. */
    std::uint64_t conflicts() const { return nConflicts.value(); }
    std::uint64_t conflictWaitCycles() const { return nWaitCycles.value(); }
    std::uint64_t queueFullRejects() const { return nRejects.value(); }
    const std::vector<std::uint64_t> &coreGrants() const { return grantsByCore; }
    const std::vector<std::uint64_t> &coreWaitCycles() const
    {
        return waitByCore;
    }
    const std::vector<std::uint64_t> &bankGrants() const { return grantsByBank; }

    void
    registerStats(stats::Group &g) const
    {
        g.add("requests", nRequests, "row-read requests received");
        g.add("grants", nGrants, "row-read slots granted");
        g.add("conflicts", nConflicts, "grants delayed by a busy bank");
        g.add("conflictWaitCycles", nWaitCycles,
              "total cycles spent waiting for banks");
        g.add("queueFullRejects", nRejects,
              "requests rejected: bank backlog over queue depth");
    }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    Btb2ArbiterParams prm;
    unsigned rowShift; ///< log2(btb2 rowBytes)
    std::vector<Cycle> freeAt; ///< per bank: first unreserved slot
    obs::TraceWriter *tracer = nullptr; ///< null = tracing off
    std::uint32_t laneId = 0;

    stats::Counter nRequests;
    stats::Counter nGrants;
    stats::Counter nConflicts;
    stats::Counter nWaitCycles;
    stats::Counter nRejects;
    std::vector<std::uint64_t> grantsByCore;
    std::vector<std::uint64_t> waitByCore;
    std::vector<std::uint64_t> grantsByBank;
};

} // namespace zbp::preload

#endif // ZBP_PRELOAD_BTB2_ARBITER_HH
