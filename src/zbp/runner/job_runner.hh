/**
 * @file
 * The one execution engine.  Every simulation — a core gang (N >= 1
 * configurations over one trace; a SimJob is a gang of one), an N-core
 * CMP, a sampled interval — is a runner::Job, and JobRunner runs a
 * batch of them across worker threads under one RunPolicy.  The engine
 * alone owns the plumbing: resume from a results file, the chunked walk
 * with checkpoint snapshots, timeout, exception isolation, the JSONL
 * sink, progress, telemetry and obs.
 *
 * Determinism: each job builds its own models and every seed derives
 * from job identity, never execution order, so ZBP_JOBS=8 is
 * bit-identical to ZBP_JOBS=1.  The walk cuts model runs only at decode
 * boundaries, which the golden-counter tests pin as bit-identical.
 */

#ifndef ZBP_RUNNER_JOB_RUNNER_HH
#define ZBP_RUNNER_JOB_RUNNER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/core/params.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/obs/trace_writer.hh"
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

    /**
     * Per-job seed: a record key only.  0 = derive from (configName,
     * trace identity) via deriveSeed(), so the value depends only on
     * job identity.  No model reads it; it goes into the JSONL record
     * and the checkpoint key, nothing else.
     */
    std::uint64_t seed = 0;
};

/** Runner telemetry for one executed job, appended to its JSONL
 * records only when `collected` is set; resume ignores it. */
struct JobTelemetry
{
    bool collected = false;
    double queueSeconds = 0.0;   ///< submit -> start
    double loadSeconds = 0.0;    ///< model build
    double runSeconds = 0.0;     ///< model execution
    double timeoutMargin = 0.0;  ///< timeout - elapsed; 0 when no timeout
    std::uint64_t queueDepth = 0; ///< jobs still waiting at start
};

/** How one job (or one of its records) ended. */
struct JobOutcome
{
    bool ok = false;
    std::string error;     ///< set when !ok
    double seconds = 0.0;  ///< wall-clock
    bool resumed = false;  ///< satisfied from a resume file, not re-run
    JobTelemetry telemetry;
};

/** Outcome of one simulated (config, trace): a result, or an error. */
struct SimJobResult : JobOutcome
{
    cpu::SimResult result; ///< valid when ok
};

// ---- job identity ----------------------------------------------------

/** The identity of one record: its (config, trace) labels and seed. */
struct RecordId
{
    std::string config;
    std::string trace;
    std::uint64_t seed = 0;

    /** The resume key: the three fields joined by '\x1f'. */
    std::string key() const;
};

/** What a job is known by: the records it writes, a display name,
 * and its snapshot key. */
struct JobIdentity
{
    std::string name;             ///< progress / span label
    std::vector<RecordId> records;
    std::string ckptKey;

    /** The job's snapshot file under @p dir; empty when @p dir is. */
    std::string ckptPath(const std::string &dir) const;
};

/** The one identity function: a job of @p kind ("gang", "cmp",
 * "interval") named @p name writes @p records, whose 0 seeds become
 * JobRunner::deriveSeed(config, trace); its snapshot key is the kind
 * plus every record key. */
JobIdentity jobIdentity(const std::string &kind, std::string name,
                        std::vector<RecordId> records);

/** A job's trace identity: @p t's name, or "<null>" without a trace. */
std::string traceId(const trace::Trace *t);

/** The record identity of a SimJob: its traceId and its seed as given
 * (0 = derive). */
RecordId simJobId(const SimJob &job);

// ---- records and resume ----------------------------------------------

/** The JSONL record of one simulated (config, trace). */
std::string jobRecord(const RecordId &id, const SimJobResult &r);

/** The JSONL record for one finished SimJob (exposed for tests). */
std::string jobRecord(const SimJob &job, const SimJobResult &r);

/** Every line of the JSONL file @p path that parses as one JSON
 * object, in file order; torn or corrupt lines (a killed writer's last
 * line) and an unreadable file are skipped with a warning. */
std::vector<json::Value> readRecords(const std::string &path);

/** A resume file, read once and indexed by record identity. */
class ResumeIndex
{
  public:
    /** Reads @p path (see readRecords); empty = nothing to resume. */
    explicit ResumeIndex(const std::string &path);

    /** Indexes already-parsed @p records. */
    explicit ResumeIndex(std::vector<json::Value> records);

    /** The restored result of @p id, or null.  Only ok records carrying
     * the cpi and every cpu::kSimCounters field restore, so a restored
     * result equals the original bit for bit; the first record of an
     * identity wins. */
    const SimJobResult *result(const RecordId &id) const;

    /** How many identities have a restored result. */
    std::size_t size() const { return results.size(); }

    /** Every record of @p id in file order (job kinds' own shapes). */
    std::vector<const json::Value *> records(const RecordId &id) const;

  private:
    std::vector<json::Value> all;
    std::unordered_map<std::string, SimJobResult> results;
    std::unordered_map<std::string, std::vector<std::size_t>> byKey;
};

// ---- the job interface -----------------------------------------------

/** One JSONL line a job hands the engine at close().  A failed
 * record fails the job's outcome (with its error) and flushes obs. */
struct JobRecord
{
    std::string line;
    bool failed = false;  ///< the work behind it failed
    std::string error{};  ///< why, when failed
};

/**
 * One schedulable unit of work.  The engine calls resume(), then
 * await() unless resumed; then begin(), maybe restore(), advance()
 * over increasing targets until it returns true (save() at checkpoint
 * points), finish(); and close() once.  A throw fails the job, and
 * cpu::SimCancelled is reported as a timeout; nothing is re-run.
 */
class Job
{
  public:
    virtual ~Job() = default;

    const JobIdentity &identity() const { return id; }

    /** Take whatever @p prior already holds; true when nothing is
     * left to run. */
    virtual bool resume(const ResumeIndex &prior) = 0;

    /** Block until the job's inputs exist (a producer beside the
     * engine may still be making them).  The wait is queue time: it
     * precedes the run and its timeout.  A throw fails the job without
     * running it. */
    virtual void await() {}

    /** Start the run from scratch, discarding any earlier state.
     * @p cancel, set only under a timeout, must reach every model. */
    virtual void begin(const std::atomic<bool> *cancel) = 0;

    /** The decode frontier after begin() / restore(). */
    virtual std::size_t position() const = 0;
    /** The frontier at which the walk is complete. */
    virtual std::size_t length() const = 0;

    /** Advance to @p target; true once the walk is complete. */
    virtual bool advance(std::size_t target) = 0;

    /** Snapshot the run; false (writing nothing) when it cannot now. */
    virtual bool save(ckpt::Writer &w) const = 0;

    /** Overwrite the begun run from a snapshot.  Throws
     * ckpt::CkptError; the job is then rebuilt with begin(). */
    virtual void restore(ckpt::Reader &r) = 0;

    /** Collect the results of a complete walk. */
    virtual void finish() = 0;

    /** Free the models; return the records of the work that ran (a
     * failure carrying o.error each when !o.ok). */
    virtual std::vector<JobRecord> close(const JobOutcome &o) = 0;

  protected:
    explicit Job(JobIdentity identity) : id(std::move(identity)) {}

  private:
    JobIdentity id;
};

// ---- the engine --------------------------------------------------------

/** Every setting of a run.  A default policy runs on ZBP_JOBS workers
 * with no export, resume, timeout or checkpoints. */
struct RunPolicy
{
    unsigned workers = 0;   ///< 0 = ZBP_JOBS / hardware_concurrency
    std::string sinkPath{};   ///< JSONL export; empty = off
    std::string resumePath{}; ///< prior results to resume; empty = off
    double timeout = 0.0;   ///< per-job wall-clock limit (s); <= 0 = off
    std::string ckptDir{};          ///< snapshot directory; empty = off
    std::uint64_t ckptInterval = 0; ///< decoded insts between snapshots
    /** Walk window (decoded insts): large enough that a gang's member
     * switches stop costing, small enough that a chunk of trace plus
     * its sidecars stays LLC-resident. */
    std::size_t chunk = 262144;
    ProgressMeter::Callback progress{}; ///< one event per record

    /** ZBP_RESULTS_JSONL, ZBP_RESUME_JSONL, ZBP_JOB_TIMEOUT,
     * ZBP_CKPT_DIR and ZBP_CKPT_INTERVAL, each read once; @p workers 0
     * resolves via ZBP_JOBS. */
    static RunPolicy fromEnv(unsigned workers = 0);
};

class JobRunner
{
  public:
    explicit JobRunner(RunPolicy policy);

    /** Run every job; outcome i belongs to jobs[i] regardless of the
     * execution interleaving. */
    std::vector<JobOutcome> run(const std::vector<Job *> &jobs);

    /** Run jobs of one kind owned by @p jobs; outcome i is jobs[i]'s. */
    template <typename J>
    std::vector<JobOutcome>
    run(const std::vector<std::unique_ptr<J>> &jobs)
    {
        std::vector<Job *> ptrs;
        ptrs.reserve(jobs.size());
        for (const auto &j : jobs)
            ptrs.push_back(j.get());
        return run(ptrs);
    }

    /** Run SimJobs, each a gang of one; result i is jobs[i]'s. */
    std::vector<SimJobResult> run(const std::vector<SimJob> &jobs);

    /** Stable seed from job identity (SplitMix64 over the names). */
    static std::uint64_t deriveSeed(const std::string &config_name,
                                    const std::string &trace_name);

  private:
    RunPolicy pol;
};

/** The calling thread's lane on the timeline's runner track, allocated
 * on first use (the writer is a process-wide singleton). */
std::uint32_t workerLane(obs::TraceWriter *tw);

} // namespace zbp::runner

#endif // ZBP_RUNNER_JOB_RUNNER_HH
