/**
 * @file
 * The simulation-level sharded runner: a batch of independent
 * (configuration x trace) jobs executed across worker threads, with
 * per-job wall-clock timing, exception isolation (one failing job
 * degrades that slot, the sweep completes), a progress meter, and a
 * structured JSONL record per completed job.
 *
 * Determinism: each job constructs its own CoreModel (every stats
 * Group, Counter and table lives inside the model — nothing is shared
 * between jobs) and carries its own seed derived from stable job
 * identity, never from execution order.  A run with ZBP_JOBS=8 is
 * therefore bit-identical to ZBP_JOBS=1.
 */

#ifndef ZBP_RUNNER_JOB_RUNNER_HH
#define ZBP_RUNNER_JOB_RUNNER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "zbp/core/params.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/runner/progress.hh"
#include "zbp/trace/trace.hh"
#include "zbp/util/json.hh"

namespace zbp::runner
{

/** One schedulable simulation: a machine configuration over a trace. */
struct SimJob
{
    SimJob() = default;
    SimJob(std::string config_name, core::MachineParams c,
           const trace::Trace *t, std::uint64_t s = 0)
        : configName(std::move(config_name)), cfg(std::move(c)),
          trace(t), seed(s)
    {}

    std::string configName;       ///< label for progress + JSONL
    core::MachineParams cfg;
    const trace::Trace *trace = nullptr; ///< non-owning; must outlive run()

    /** Alternative to `trace`: load this .zbpt file inside the worker
     * (per attempt, so a transient open failure is retryable).  Used
     * when the trace set is too large to keep resident, or when jobs
     * are replayed from a results file.  Ignored if `trace` is set. */
    std::string tracePath;

    /**
     * Per-job RNG seed.  0 = derive from (configName, trace identity)
     * via deriveSeed(), so the value depends only on job identity.  The
     * seed feeds the fault injector (when enabled) and is exported in
     * the JSONL record for reproduction; derivation from identity keeps
     * the parallel-equals-serial guarantee.
     */
    std::uint64_t seed = 0;
};

/**
 * Runner telemetry for one executed job: where its wall-clock went and
 * how contended the runner was.  Appended to the JSONL record as extra
 * fields only when `collected` is set (synthetic results in tests
 * keep the shorter shape); resume ignores fields it does not read, so
 * record identity is unchanged either way.
 */
struct JobTelemetry
{
    bool collected = false;
    double queueSeconds = 0.0;   ///< submit -> first attempt start
    double loadSeconds = 0.0;    ///< trace load/map time (last attempt)
    double runSeconds = 0.0;     ///< model execution (last attempt)
    double timeoutMargin = 0.0;  ///< timeout - elapsed; 0 when no timeout
    unsigned retries = 0;        ///< attempts - 1
    std::uint64_t queueDepth = 0;   ///< jobs still waiting at start
    std::uint64_t traceCacheHits = 0; ///< on-disk trace cache hits (when
                                      ///< the executing layer knows)
};

/** Outcome of one job: a result, or a captured error. */
struct SimJobResult
{
    bool ok = false;
    std::string error;     ///< set when !ok
    double seconds = 0.0;  ///< wall-clock of this job
    unsigned attempts = 1; ///< execution attempts (retries + 1)
    bool resumed = false;  ///< satisfied from a resume file, not re-run
    cpu::SimResult result; ///< valid when ok
    JobTelemetry telemetry;
};

class JobRunner
{
  public:
    /** @p jobs 0 resolves via ZBP_JOBS / hardware_concurrency. */
    explicit JobRunner(unsigned jobs = 0);

    unsigned jobs() const { return nJobs; }

    /** Per-completion callback (default: none).  Pass
     * consoleProgress() for the standard tty status line. */
    void setProgress(ProgressMeter::Callback cb);

    /** JSONL destination; overrides the ZBP_RESULTS_JSONL default.
     * Empty string disables export. */
    void setSinkPath(std::string path);

    /**
     * Per-job wall-clock timeout in seconds; overrides the
     * ZBP_JOB_TIMEOUT default.  <= 0 disables.  A job over its limit is
     * cancelled cooperatively (the model's run loop polls a flag) and
     * fails with a "timed out" error; timeouts are not retried.
     */
    void setJobTimeout(double seconds);

    /** Retries for transient failures (RetryableError /
     * trace::TraceOpenError), with deterministic exponential backoff;
     * overrides the ZBP_JOB_RETRIES default.  0 = single attempt. */
    void setRetries(unsigned n);

    /**
     * Checkpoint/resume: a JSONL results file from a previous (partial
     * or failed) sweep; overrides the ZBP_RESUME_JSONL default.  Jobs
     * whose (config, trace, seed) identity matches an ok=true record
     * are satisfied from the record — not re-executed and not
     * re-written to the sink — so a crashed sweep re-runs only what is
     * missing or failed.  Empty string disables.
     */
    void setResumePath(std::string path);

    /**
     * Run every job; result i corresponds to jobs[i] regardless of
     * the execution interleaving.  A job that throws yields a
     * SimJobResult with ok=false and the exception message; the other
     * jobs are unaffected.
     */
    std::vector<SimJobResult> run(const std::vector<SimJob> &jobs);

    /** Stable seed from job identity (SplitMix64 over the names). */
    static std::uint64_t deriveSeed(const std::string &config_name,
                                    const std::string &trace_name);

  private:
    unsigned nJobs;
    ProgressMeter::Callback progress;
    std::string sinkPath;
    bool sinkPathSet = false;
    double jobTimeout = 0.0;
    bool jobTimeoutSet = false;
    unsigned retries = 0;
    bool retriesSet = false;
    std::string resumePath;
    bool resumePathSet = false;
};

/** Stable identity of the job's trace for seeds, records and resume
 * matching: the trace's name, else the trace path, else "<null>". */
std::string jobTraceId(const SimJob &job);

/** The JSONL record for one finished job (exposed for tests). */
std::string jobRecord(const SimJob &job, const SimJobResult &r);

// ---- checkpoint/resume plumbing -------------------------------------
//
// Shared between JobRunner and the gang-chunked sweep executor
// (sim::GangRunner) so both honour the same ZBP_RESUME_JSONL contract.

/** Stable resume identity of a (config, trace, seed) job. */
std::string resumeKey(const std::string &config, const std::string &trace,
                      std::uint64_t seed);

/** Every line of the JSONL file @p path that parses as one JSON
 * object, in file order.  Torn or corrupt lines (a killed writer's
 * last line) are skipped with a warning; an unreadable file warns and
 * yields none. */
std::vector<json::Value> readRecords(const std::string &path);

/** The resume identity of a record's (config, trace, seed) fields, or
 * nullopt when one is missing or mistyped. */
std::optional<std::string> recordResumeKey(const json::Value &rec);

/** Index prior records by identity -> reconstructed result.  Only
 * ok=true records carrying the cpi and every cpu::kSimCounters field
 * are kept, so a restored result equals the original bit for bit; a
 * failed job or a record of an older, shorter schema re-runs.  The
 * first record of an identity wins. */
std::unordered_map<std::string, SimJobResult>
loadResumeResults(const std::vector<json::Value> &records);

/** The ZBP_RESUME_JSONL path, or empty when unset. */
std::string resumePathFromEnv();

} // namespace zbp::runner

#endif // ZBP_RUNNER_JOB_RUNNER_HH
