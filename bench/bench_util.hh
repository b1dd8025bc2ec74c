/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: length
 * scaling, the common startup banner, progress output and common
 * formatting.  Implementations live in bench_util.cc (linked as
 * zbp_bench_util) so every binary logs one consistent banner instead
 * of each translation unit inlining its own printing.
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

#include <unistd.h>

#include "zbp/runner/job_runner.hh"
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

/** A named machine configuration of a variant sweep. */
struct Variant
{
    std::string name;
    core::MachineParams cfg;
};

/**
 * Every variant over every trace as one sharded batch, tabulated as
 * CPI per (variant, trace) plus the average CPI improvement over
 * variants[0], the baseline.  A failed job is fatal, named by @p what.
 */
stats::TextTable
variantCpiTable(const std::string &title, const std::string &what,
                const std::vector<std::string> &suites,
                const std::vector<trace::TraceHandle> &traces,
                const std::vector<Variant> &variants);

} // namespace zbp::bench

#endif // ZBP_BENCH_BENCH_UTIL_HH
