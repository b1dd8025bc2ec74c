/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: length
 * scaling, the common startup banner, suite loading, the one
 * variant-sweep path, progress output and common formatting.
 * Implementations live in bench_util.cc (linked as zbp_bench_util) so
 * every binary logs one consistent banner instead of each translation
 * unit inlining its own printing.
 *
 * Every binary honours:
 *   ZBP_LEN_SCALE      trace length multiplier (default 1.0)
 *   ZBP_JOBS           worker threads for sharded runs (default: cores)
 *   ZBP_RESULTS_JSONL  per-simulation JSONL results file (default: off)
 */

#ifndef ZBP_BENCH_BENCH_UTIL_HH
#define ZBP_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "zbp/runner/gang_job.hh"
#include "zbp/sim/simulator.hh"
#include "zbp/stats/table.hh"
#include "zbp/workload/suites.hh"

namespace zbp::bench
{

/**
 * Read ZBP_LEN_SCALE and print the one-line startup banner (scale,
 * job count, results sink) exactly once per process.
 */
double scaleFromEnv();

/** Print the banner without consuming the scale (for binaries that do
 * not use suite traces). */
void banner();

/**
 * Load paper suite traces at @p scale, sharded across workers, through
 * the workload trace cache (ZBP_TRACE_CACHE) and the in-process handle
 * registry.  @p names selects a subset (empty = all 13 suites, in
 * paperSuites() order).  Prints a one-line cache summary ("N cache
 * hits, M generated") when the cache served or generated any of them.
 * fatal() if any suite fails to load.
 */
std::vector<trace::TraceHandle>
suiteTraces(double scale, const std::vector<std::string> &names = {});

inline void
progressLine(const std::string &what)
{
    if (!isatty(1))
        return; // keep piped/teed output clean
    std::printf("[zbp] running: %-40s\r", what.c_str());
    std::fflush(stdout);
}

inline void
progressDone()
{
    if (isatty(1))
        std::printf("%60s\r", "");
}

/**
 * Run every variant of @p gang over every trace of @p traces, as one
 * gang per trace (runner::runGangs) under RunPolicy::fromEnv() with the
 * console progress line; result [v][t] is gang[v] over traces[t].
 * Members run counters-only (no stats text).  A failed cell is fatal,
 * named by @p what, its variant and its trace.
 */
std::vector<std::vector<cpu::SimResult>>
sweep(const std::string &what, std::vector<runner::GangConfig> gang,
      const std::vector<trace::TraceHandle> &traces);

/** Mean % CPI improvement of variant @p v of a sweep() result over
 * variant 0, the baseline, across its traces. */
double meanImprovement(const std::vector<std::vector<cpu::SimResult>> &res,
                       std::size_t v);

/**
 * sweep() tabulated as CPI per (variant, trace) plus the average CPI
 * improvement over variants[0], the baseline.
 */
stats::TextTable
variantCpiTable(const std::string &title, const std::string &what,
                const std::vector<std::string> &suites,
                const std::vector<trace::TraceHandle> &traces,
                const std::vector<runner::GangConfig> &variants);

} // namespace zbp::bench

#endif // ZBP_BENCH_BENCH_UTIL_HH
