/**
 * @file
 * The record describing one dynamic branch prediction as broadcast by
 * the first-level search pipeline to instruction fetch and decode.
 */

#ifndef ZBP_CORE_PREDICTION_HH
#define ZBP_CORE_PREDICTION_HH

#include <cstdint>

#include "zbp/common/types.hh"
#include "zbp/dir/history.hh"

namespace zbp::core
{

/** Which first-level structure supplied the BTB entry. */
enum class PredictionSource : std::uint8_t
{
    kBtb1,
    kBtbp,
};

/** One branch prediction in flight. */
struct Prediction
{
    std::uint64_t seq = 0;   ///< monotonically increasing id
    Addr ia = 0;             ///< perceived branch address
    bool taken = false;      ///< predicted direction
    Addr target = kNoAddr;   ///< predicted target (taken only)
    Cycle availableAt = 0;   ///< broadcast cycle (b4/b5/b6)
    PredictionSource source = PredictionSource::kBtb1;
    bool usedPht = false;    ///< direction came from the PHT
    bool usedCtb = false;    ///< target came from the CTB

    /** PHT/CTB hashes of the speculative history *before* this branch
     * was applied; carried with the prediction so training at resolve
     * time uses the same indices the lookup used.  Only the folded
     * hashes travel — a full HistoryState snapshot made every queued
     * prediction ~150 bytes heavier and forced resolve to re-fold. */
    dir::HistoryHashes hist;

    /** The checkpointed fields (ckpt.hh field verbs), shared by the
     * search queue and the core's resolve events. */
    template <class Self, class Io>
    static void
    state(Self &p, Io &io)
    {
        io.u64(p.seq);
        io.u64(p.ia);
        io.flag(p.taken);
        io.u64(p.target);
        io.u64(p.availableAt);
        io.enum8(p.source, PredictionSource::kBtbp, "prediction source");
        io.flag(p.usedPht);
        io.flag(p.usedCtb);
        io.u64(p.hist.phtIndex);
        io.u64(p.hist.phtTagHash);
        io.u64(p.hist.ctbIndex);
    }
};

} // namespace zbp::core

#endif // ZBP_CORE_PREDICTION_HH
