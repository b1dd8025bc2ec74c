/**
 * @file
 * The 13 named large-footprint workloads of the paper's Table 4,
 * re-created as synthetic suites.
 *
 * Each suite pairs a static program recipe (BuildParams) with dynamic
 * behaviour (GenParams), tuned so the measured unique-branch and
 * unique-taken-branch footprints land near the counts IBM reported.
 * Absolute agreement is impossible (the real traces are proprietary);
 * `bench/table4_footprints` prints paper-vs-measured side by side.
 */

#ifndef ZBP_WORKLOAD_SUITES_HH
#define ZBP_WORKLOAD_SUITES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "zbp/trace/trace.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"

namespace zbp::workload
{

/** One Table 4 row: paper metadata plus the synthetic recipe. */
struct SuiteSpec
{
    std::string name;                  ///< short identifier
    std::string paperName;             ///< Table 4 trace name
    std::uint64_t paperUniqueBranches; ///< Table 4 column 2
    std::uint64_t paperUniqueTaken;    ///< Table 4 column 3
    BuildParams build;
    GenParams gen;
};

/** All 13 suites, in the paper's Table 4 order. */
const std::vector<SuiteSpec> &paperSuites();

/** Look up a suite by its short name; fatal() when unknown. */
const SuiteSpec &findSuite(const std::string &name);

/**
 * Build the program and generate the trace for @p spec.
 * @param length_scale multiplies the suite's nominal instruction count
 *        (benches use < 1.0 for quick runs, tests use ~0.1).
 *
 * Content-addressed on-disk cache: when ZBP_TRACE_CACHE names a
 * directory, the trace is stored there as
 * `<name>-<key>.zbpt` where the key hashes every BuildParams and
 * GenParams field, the length scale and kGeneratorVersion — any change
 * to the recipe changes the file name, so stale entries are never
 * reused, only orphaned.  A cache hit memory-maps the file zero-copy
 * (the returned Trace is a view; concurrent processes share one
 * physical copy); a corrupt entry is regenerated and rewritten.  Cache
 * writes are atomic (tmp + rename), so a crashed or racing writer can
 * never publish a partial file.
 */
trace::Trace makeSuiteTrace(const SuiteSpec &spec,
                            double length_scale = 1.0);

/** Cache-key of (spec, length_scale) — the hex id embedded in cache
 * file names (exposed for tests and tooling). */
std::uint64_t suiteTraceKey(const SuiteSpec &spec, double length_scale);

/**
 * Shared-ownership variant of makeSuiteTrace with an in-process
 * registry: repeated calls for the same (spec recipe, scale) return the
 * same immutable Trace while anyone still holds it (weak registry —
 * dropped traces are regenerated or re-mapped on demand).  This is the
 * loader the sweep fusion path uses so N configurations reference one
 * trace instance instead of N copies.
 */
trace::TraceHandle suiteTraceHandle(const SuiteSpec &spec,
                                    double length_scale = 1.0);

/** Process-wide trace-cache counters (monotonic). */
struct TraceCacheStats
{
    std::uint64_t hits = 0;      ///< served by mapping a cached file
    std::uint64_t misses = 0;    ///< no cached file: generated
    std::uint64_t invalid = 0;   ///< cached file corrupt: regenerated
    std::uint64_t generated() const { return misses + invalid; }
};

/** Snapshot of the cache counters (all zero when caching is off). */
TraceCacheStats traceCacheStats();

/**
 * Honour the ZBP_LEN_SCALE environment variable (default 1.0) so every
 * bench binary can be globally shortened or lengthened.  A value that
 * is not wholly a finite number > 0 warns once and reads as 1.0.
 */
double envLengthScale();

} // namespace zbp::workload

#endif // ZBP_WORKLOAD_SUITES_HH
