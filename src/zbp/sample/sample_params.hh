/**
 * @file
 * Sampled-simulation parameters (temporal sampling: one warm-up pass
 * fans out restore points, detailed measurement intervals run in
 * parallel — see DESIGN.md §13).
 *
 * `exact` runs the warm-up pass with the detailed model and tiles the
 * whole trace with measurement windows: the stitched counters are
 * bit-identical to a monolithic CoreModel::run (pinned by tests) and
 * the speedup comes only from running intervals in parallel.  `fast`
 * runs the warm-up functionally (CoreModel::advanceFunctional), then
 * each interval re-warms the timing pipeline over warmupInsts
 * detailed instructions before measuring a window of measureInsts;
 * the stitched CPI is a sampled estimate with a coverage ratio and an
 * error bar.
 */

#ifndef ZBP_SAMPLE_SAMPLE_PARAMS_HH
#define ZBP_SAMPLE_SAMPLE_PARAMS_HH

#include <cstdint>

namespace zbp::sample
{

/** Warm-up fidelity of the sampled run (see file comment). */
enum class SampleMode : std::uint8_t
{
    kExact, ///< detailed warm-up, windows tile the trace, stitched
            ///< counters bit-identical to a monolithic run
    kFast,  ///< functional warm-up, per-interval detailed re-warm,
            ///< measured windows sample the trace (CPI estimate)
};

/** "exact" / "fast". */
const char *to_string(SampleMode m);

struct SampleParams
{
    SampleMode mode = SampleMode::kFast;

    /** Instructions between restore points (interval length). */
    std::uint64_t intervalInsts = 1'000'000;

    /** Detailed warm-up instructions at the head of each interval,
     * simulated but excluded from the measured window (fast mode; the
     * exact mode has no warm-up — its snapshots are already exact). */
    std::uint64_t warmupInsts = 50'000;

    /** Measured instructions per interval in fast mode; 0 selects
     * intervalInsts / 10.  Exact mode always measures the whole
     * interval. */
    std::uint64_t measureInsts = 0;

    /** The effective measured-window length for this mode. */
    std::uint64_t measured() const;

    /** Throws std::invalid_argument on an unusable combination
     * (intervalInsts == 0, or a fast-mode warm-up + window that does
     * not fit inside one interval). */
    void validate() const;
};

} // namespace zbp::sample

#endif // ZBP_SAMPLE_SAMPLE_PARAMS_HH
