/**
 * @file
 * Observability configuration and the process-wide writer singletons.
 *
 * Environment contract (all off by default — when every ZBP_OBS_* var
 * is unset, no obs object is ever constructed and the simulation runs
 * bit-identically to a build without this subsystem):
 *
 *  - ZBP_OBS_INTERVAL=N    sample registered counters every N decoded
 *                          instructions per core (N >= 1)
 *  - ZBP_OBS_OUT=path      interval sidecar path; ".csv" suffix selects
 *                          CSV, anything else JSONL.  Defaults to
 *                          "obs_intervals.jsonl" when ZBP_OBS_INTERVAL
 *                          is set without it.
 *  - ZBP_OBS_TRACE=path    Chrome trace-event / Perfetto JSON timeline
 *                          (TraceWriter's default event cap)
 *
 * The writers are lazily constructed singletons: every job of every
 * runner::JobRunner run in one process must share one sidecar / one
 * timeline file.  They are torn down by a
 * static destructor at normal process exit, which writes the trace
 * footer; call obsShutdown() earlier to validate files mid-process.
 */

#ifndef ZBP_OBS_OBS_CONFIG_HH
#define ZBP_OBS_OBS_CONFIG_HH

#include <cstdint>
#include <string>

#include "zbp/obs/interval_sampler.hh"
#include "zbp/obs/trace_writer.hh"

namespace zbp::obs
{

struct ObsConfig
{
    std::uint64_t intervalInsts = 0; ///< 0 = sampling off
    std::string intervalPath;
    std::string tracePath;           ///< empty = tracing off

    bool samplingEnabled() const { return intervalInsts > 0; }
    bool tracingEnabled() const { return !tracePath.empty(); }
};

/** Parse the ZBP_OBS_* environment (warning once per bad value). */
ObsConfig obsConfigFromEnv();

/** The process-wide timeline writer, or nullptr when ZBP_OBS_TRACE is
 * unset.  Constructed on first call, closed at process exit. */
TraceWriter *globalTraceWriter();

/** The process-wide interval sidecar, or nullptr when ZBP_OBS_INTERVAL
 * is unset. */
IntervalWriter *globalIntervalWriter();

/** ZBP_OBS_INTERVAL as parsed for the global writers (0 = off). */
std::uint64_t globalIntervalInsts();

/** Close both global writers (idempotent); files become valid/complete
 * at this point instead of at process exit. */
void obsShutdown();

/** Flush both global writers without closing them.  Runners call this
 * when a job fails or a watchdog fires, so observability collected up
 * to the failure survives even if the process dies right after. */
void obsFlush();

} // namespace zbp::obs

#endif // ZBP_OBS_OBS_CONFIG_HH
