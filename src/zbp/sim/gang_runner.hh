/**
 * @file
 * Gang-chunked sweep execution: N machine configurations simulated over
 * ONE trace in chunk-interleaved order.
 *
 * The job-per-(config, trace) runner streams every trace through memory
 * once *per configuration*: a 3-config sweep over a 100 MB trace set
 * reads 300 MB of trace data, and on a machine whose LLC cannot hold a
 * trace, each pass starts cold.  The gang runner instead walks the
 * sweep trace-major: all configurations of a gang advance over the same
 * instruction window ([0, C), then [C, 2C), ...) before the window
 * moves, so a chunk of trace (and its TraceIndex sidecar) is pulled
 * into cache once and consumed by every model while hot.  DRAM-stream
 * amplification (trace bytes read / trace bytes) drops from N to ~1.
 *
 * Determinism: CoreModel::advance cuts the run loop only at decode
 * boundaries and the models share nothing but immutable inputs (the
 * trace and its sidecar), so per-model results are bit-identical to
 * serial runs — the golden-counter tests and the gang-runner tests pin
 * this, across chunk sizes.
 *
 * The runner honours the same ZBP_RESULTS_JSONL / ZBP_RESUME_JSONL
 * contract as runner::JobRunner (same record shape, same resume
 * identity), so sweeps can mix the two paths and resume across them.
 * Per-job wall-clock timeouts (ZBP_JOB_TIMEOUT) are not supported on
 * the gang path: configs of a gang advance in lockstep, so one config's
 * wall-clock is not separable for cancellation.
 */

#ifndef ZBP_SIM_GANG_RUNNER_HH
#define ZBP_SIM_GANG_RUNNER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "zbp/core/params.hh"
#include "zbp/runner/job_runner.hh"
#include "zbp/runner/progress.hh"
#include "zbp/trace/trace.hh"

namespace zbp::sim
{

/** One member of a gang: a named machine configuration. */
struct GangConfig
{
    std::string name;       ///< label for records, progress and resume
    core::MachineParams cfg;
};

/** ZBP_GANG_CHUNK if set and valid (>= 1), else 262144 — large enough
 * that per-chunk member-switch overhead (each model's BTB/predictor
 * arrays re-warming the cache) vanishes, small enough that a chunk of
 * trace plus its sidecar slices stays LLC-resident for the gang. */
std::size_t gangChunkFromEnv();

class GangRunner
{
  public:
    /** @p jobs 0 resolves via ZBP_JOBS / hardware_concurrency; the
     * parallel axis is traces (each gang runs on one worker). */
    explicit GangRunner(std::vector<GangConfig> configs,
                        unsigned jobs = 0);

    unsigned jobs() const { return nJobs; }

    /** Decode-chunk size override (>= 1); default gangChunkFromEnv(). */
    void setChunk(std::size_t chunk);

    /** Per-completion callback (one completion per (config, trace)). */
    void setProgress(runner::ProgressMeter::Callback cb);

    /** JSONL destination; overrides the ZBP_RESULTS_JSONL default.
     * Empty string disables export. */
    void setSinkPath(std::string path);

    /** Resume checkpoint; overrides the ZBP_RESUME_JSONL default (see
     * runner::JobRunner::setResumePath — identical semantics). */
    void setResumePath(std::string path);

    /**
     * Run every configuration over every trace; result[c][t] is
     * config c over trace t.  A config that throws (wedge, invariant
     * violation) yields ok=false for that (config, trace) cell; the
     * rest of the gang keeps running.  Each trace's TraceIndex is
     * computed once and shared read-only by the whole gang.
     */
    std::vector<std::vector<runner::SimJobResult>>
    run(const std::vector<trace::TraceHandle> &traces);

  private:
    std::vector<GangConfig> configs;
    unsigned nJobs;
    std::size_t chunk;
    runner::ProgressMeter::Callback progress;
    std::string sinkPath;
    bool sinkPathSet = false;
    std::string resumePath;
    bool resumePathSet = false;
};

} // namespace zbp::sim

#endif // ZBP_SIM_GANG_RUNNER_HH
