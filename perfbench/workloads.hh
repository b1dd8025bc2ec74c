/**
 * @file
 * The benchmark's three workloads.  Each one runs its untraced
 * repetition through the library's own entry point (sim::runFig2Rows,
 * sim::CmpRunner::run, sample::SampleRunner::run) and its traced
 * repetition as the same walk driven from here, one span per call into
 * a layer, so both produce the same operations with the same counters.
 */

#ifndef ZBP_PERFBENCH_WORKLOADS_HH
#define ZBP_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"
#include "zbp/workload/suites.hh"

namespace perfbench
{

/** One checked operation: a (config, trace) simulation, a CMP job or a
 * sampled run.  @p error is empty when the result is well formed. */
struct Op
{
    std::string id;
    std::uint64_t digest = 0;
    std::string error;
};

/** What one repetition measured. */
struct Rep
{
    bool traced = false;
    double setupS = 0.0;   ///< start -> simulation entry point
    double wallS = 0.0;    ///< start -> results in hand
    double simInsts = 0.0; ///< instructions simulated, all machines
    double peakRssMb = 0.0;
    std::vector<Op> ops;
    /** Traced: per-layer metrics.  Both: simulated fidelity figures. */
    std::map<std::string, double> metrics;
};

/** What every workload is built from. */
struct Context
{
    std::vector<zbp::workload::SuiteSpec> suites; ///< seed-derived
    unsigned jobs = 1;
    std::string traceCache;   ///< on-disk trace cache of this run
    std::string resultsJsonl; ///< runner record sink of the traced walk
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Untimed preparation (trace cache selection and fill), called
     * once before any worker thread starts; spans go to run 0. */
    virtual std::map<std::string, double> prime(SpanLog &log) = 0;

    virtual Rep runUntraced() = 0;

    /** The same repetition with one span per layer call; spans are
     * stamped with the log's current run id. */
    virtual Rep runTraced(SpanLog &log) = 0;

    /** Once-per-run checks after the traced repetitions (e.g. the exact
     * reference of a sampled run); default none. */
    virtual Rep
    finish(SpanLog &)
    {
        return {};
    }
};

/** The workload called @p name, or nullptr. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Context &ctx);

/** The paper suites with build/gen seeds offset by @p seed (0 keeps
 * the paper suites unchanged). */
std::vector<zbp::workload::SuiteSpec> seededSuites(std::uint64_t seed);

} // namespace perfbench

#endif // ZBP_PERFBENCH_WORKLOADS_HH
