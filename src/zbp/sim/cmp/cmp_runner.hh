/**
 * @file
 * CmpRunner — sharded execution of CMP jobs with the same JSONL
 * record/resume contract as runner::JobRunner.
 *
 * One CMP job is one N-core CmpModel over N traces.  The parallel axis
 * is jobs (a CMP steps its cores sequentially for determinism), and
 * every job emits:
 *
 *  - one per-core record per (job, core), config name "<job>#c<i>",
 *    byte-compatible with runner::jobRecord so the generic tooling
 *    (resume, CSV extraction) consumes CMP runs unchanged;
 *  - one sharing record, config name "<job>#shared", carrying every
 *    arbiter/L2I counter that exists only at the CMP level (the
 *    per-core and per-bank ones as JSON arrays).  It is written with
 *    ok=false so runner::loadResumeResults skips it (it is not a
 *    re-runnable job), and read back here with the same JSON reader.
 *
 * Resume is all-or-nothing per job: a job is satisfied from the
 * checkpoint only when its sharing record and every per-core record
 * are present, so a resumed CmpResult equals a fresh one on every
 * counter; otherwise the whole job re-runs.
 */

#ifndef ZBP_SIM_CMP_CMP_RUNNER_HH
#define ZBP_SIM_CMP_CMP_RUNNER_HH

#include <string>
#include <vector>

#include "zbp/runner/job_runner.hh"
#include "zbp/sim/cmp/cmp_model.hh"

namespace zbp::sim
{

/** One schedulable CMP simulation: a machine over one trace per core.
 * cfg.cmp.cores must equal traces.size() (CmpModel enforces it). */
struct CmpJob
{
    std::string name; ///< label for records, progress and resume
    core::MachineParams cfg;
    std::vector<trace::TraceHandle> traces; ///< core i runs traces[i]
};

/** Outcome of one CMP job: a result, or a captured error. */
struct CmpJobResult
{
    bool ok = false;
    std::string error;    ///< set when !ok
    double seconds = 0.0; ///< wall-clock of this job
    bool resumed = false; ///< satisfied from a resume file, not re-run
    CmpResult result;     ///< valid when ok
};

class CmpRunner
{
  public:
    /** @p jobs 0 resolves via ZBP_JOBS / hardware_concurrency. */
    explicit CmpRunner(unsigned jobs = 0);

    unsigned jobs() const { return nJobs; }

    /** Per-completion callback (one completion per CMP job). */
    void setProgress(runner::ProgressMeter::Callback cb);

    /** JSONL destination; overrides the ZBP_RESULTS_JSONL default.
     * Empty string disables export. */
    void setSinkPath(std::string path);

    /** Resume checkpoint; overrides the ZBP_RESUME_JSONL default. */
    void setResumePath(std::string path);

    /** Run every job; result i corresponds to jobs[i].  A job that
     * throws yields ok=false with the message; the rest still run. */
    std::vector<CmpJobResult> run(const std::vector<CmpJob> &jobs);

  private:
    unsigned nJobs;
    runner::ProgressMeter::Callback progress;
    std::string sinkPath;
    bool sinkPathSet = false;
    std::string resumePath;
    bool resumePathSet = false;
};

/** The per-core record/resume config name of core @p i of job @p name
 * ("<name>#c<i>") — one scheme shared by writer, resume and tests. */
std::string cmpCoreConfigName(const std::string &name, unsigned i);

/** The sharing-record config name of job @p name ("<name>#shared"). */
std::string cmpSharedConfigName(const std::string &name);

/** The sharing record's trace identity: per-core trace names joined
 * with '+' ("cicsdb2+tpf+..."). */
std::string cmpTraceMixId(const std::vector<trace::TraceHandle> &traces);

// ---- environment knobs ----------------------------------------------

/** ZBP_CMP_CORES as a positive integer, or 0 when unset (callers treat
 * 0 as "no override"); warns once on junk. */
unsigned cmpCoresFromEnv();

/** ZBP_BTB2_BANKS as a positive integer, or 0 when unset. */
unsigned cmpBanksFromEnv();

/** ZBP_CMP_ARB ("fcfs" or "tdm"), or @p dflt when unset; warns once on
 * junk. */
preload::ArbPolicy cmpArbPolicyFromEnv(preload::ArbPolicy dflt);

} // namespace zbp::sim

#endif // ZBP_SIM_CMP_CMP_RUNNER_HH
