/**
 * @file
 * The serial half of a sampled run: interval planning and the warm-up
 * pass that fans out one in-memory restore point (ckpt::SnapshotBuffer)
 * per interval boundary.
 *
 * The warm-up pass is the only part of a sampled run that walks the
 * trace front to back; everything downstream of it (the detailed
 * measurement intervals) is embarrassingly parallel.  In exact mode the
 * pass uses CoreModel::advance, so every snapshot is the true detailed
 * machine state at its boundary; in fast mode it uses
 * CoreModel::advanceFunctional, trading per-cycle fidelity for an
 * order-of-magnitude higher instruction rate (the per-interval detailed
 * warm-up downstream re-fills the timing-only state).
 *
 * The pass hands each snapshot over the moment it is captured, so a
 * consumer need not wait for the whole walk: SampleRunner starts
 * interval k as soon as snapshot k lands, while the walk goes on.
 */

#ifndef ZBP_SAMPLE_SNAPSHOT_FANOUT_HH
#define ZBP_SAMPLE_SNAPSHOT_FANOUT_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/sample/sample_params.hh"
#include "zbp/trace/trace.hh"

namespace zbp::sample
{

/** One measurement interval of a sampled run, in decode-boundary
 * instruction indices over the trace. */
struct IntervalPlan
{
    std::size_t index = 0;        ///< interval ordinal k (names #iv<k>)
    std::size_t snapshotAt = 0;   ///< restore point (k * intervalInsts)
    std::size_t measureBegin = 0; ///< first measured instruction
    std::size_t measureEnd = 0;   ///< one past the last measured inst
};

/**
 * Lay measurement intervals over a trace of @p trace_len instructions.
 * Exact mode tiles: [k*I, (k+1)*I) with the tail clamped, so the
 * windows cover every instruction exactly once.  Fast mode samples:
 * the window starts warmupInsts after the restore point and spans
 * measured() instructions, clamped to the trace; boundary intervals
 * whose window would be empty are dropped.  Throws
 * std::invalid_argument via SampleParams::validate or on an empty
 * trace.
 */
std::vector<IntervalPlan> planIntervals(std::size_t trace_len,
                                        const SampleParams &p);

/** What the warm-up pass walked. */
struct FanoutResult
{
    std::size_t instructions = 0; ///< instructions walked by the pass
    double seconds = 0.0;
    double instsPerSec = 0.0;
};

/** Receives (i, the snapshot restoring plan[i]) during the pass; index
 * 0's is an empty buffer (interval 0 starts from beginRun, no restore
 * needed). */
using SnapshotSink = std::function<void(std::size_t, ckpt::SnapshotBuffer)>;

/**
 * Walk @p m (already constructed, not yet armed) over @p t to every
 * restore point in @p plan in order, handing @p sink each boundary's
 * saveState snapshot as soon as it is captured.  @p mode selects
 * detailed (kExact) or functional (kFast) execution between
 * boundaries; the walk to plan[0] (instruction 0) runs too, so a model
 * that cannot walk in @p mode throws before any snapshot is handed
 * over.  The model is left armed mid-run and should be discarded.
 */
FanoutResult runWarmupFanout(cpu::CoreModel &m, const trace::Trace &t,
                             const std::vector<IntervalPlan> &plan,
                             SampleMode mode, const SnapshotSink &sink);

} // namespace zbp::sample

#endif // ZBP_SAMPLE_SNAPSHOT_FANOUT_HH
