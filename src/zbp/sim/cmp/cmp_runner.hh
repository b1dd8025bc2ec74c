/**
 * @file
 * CMP jobs on the one engine: a CmpChipJob is one N-core CmpModel over
 * N traces, run by runner::JobRunner under the same JSONL record,
 * resume, timeout and checkpoint contract as every other job kind.
 * The parallel axis is jobs (a CMP steps its cores sequentially for
 * determinism), and every job emits:
 *
 *  - one per-core record per (job, core), config name "<job>#c<i>",
 *    byte-compatible with runner::jobRecord so the generic tooling
 *    (resume, CSV extraction) consumes CMP runs unchanged;
 *  - one sharing record, config name "<job>#shared", carrying every
 *    arbiter/L2I counter that exists only at the CMP level (the
 *    per-core and per-bank ones as JSON arrays).  It is written with
 *    ok=false so runner::ResumeIndex never restores it (it is not a
 *    re-runnable job), and read back here with the same JSON reader.
 *
 * Resume is all-or-nothing per job: a job is satisfied from the
 * results file only when its sharing record and every per-core record
 * are present, so a resumed CmpResult equals a fresh one on every
 * counter; otherwise the whole job re-runs.
 */

#ifndef ZBP_SIM_CMP_CMP_RUNNER_HH
#define ZBP_SIM_CMP_CMP_RUNNER_HH

#include <memory>
#include <string>
#include <unordered_map>
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
struct CmpJobResult : runner::JobOutcome
{
    CmpResult result; ///< valid when ok
};

/** One CmpJob as an engine job.  Cores share read-only D-cache outcome
 * maps, deduplicated by trace. */
class CmpChipJob final : public runner::Job
{
  public:
    /** @p spec (and its traces) must outlive the job. */
    explicit CmpChipJob(const CmpJob &spec);

    /** The job's result after the engine ran it. */
    CmpJobResult &result() { return res; }

    bool resume(const runner::ResumeIndex &prior) override;
    void begin(const std::atomic<bool> *cancel) override;
    std::size_t position() const override { return model->decodedWindow(); }
    std::size_t length() const override { return model->maxInsts(); }
    bool advance(std::size_t target) override
    {
        return model->advance(target);
    }
    bool save(ckpt::Writer &w) const override
    {
        model->saveState(w);
        return true;
    }
    void restore(ckpt::Reader &r) override { model->restoreState(r); }
    void finish() override { res.result = model->finishRun(); }
    std::vector<runner::JobRecord>
    close(const runner::JobOutcome &o) override;

  private:
    const CmpJob &spec;
    CmpJobResult res;
    // Per run.
    std::unordered_map<const trace::Trace *, std::vector<std::uint8_t>>
            dmaps;
    std::unique_ptr<CmpModel> model;
};

class CmpRunner
{
  public:
    /** @p jobs 0 resolves via ZBP_JOBS / hardware_concurrency; every
     * other setting from the environment (runner::RunPolicy). */
    explicit CmpRunner(unsigned jobs = 0);
    explicit CmpRunner(runner::RunPolicy policy);

    /** Run every job; result i corresponds to jobs[i].  A job that
     * throws yields ok=false with the message; the rest still run. */
    std::vector<CmpJobResult> run(const std::vector<CmpJob> &jobs);

  private:
    runner::RunPolicy pol;
};

/** The per-core record/resume config name of core @p i of job @p name
 * ("<name>#c<i>") — one scheme shared by writer, resume and tests. */
std::string cmpCoreConfigName(const std::string &name, unsigned i);

/** The sharing-record config name of job @p name ("<name>#shared"). */
std::string cmpSharedConfigName(const std::string &name);

/** The sharing record's trace identity: per-core trace names joined
 * with '+' ("cicsdb2+tpf+..."). */
std::string cmpTraceMixId(const std::vector<trace::TraceHandle> &traces);

} // namespace zbp::sim

#endif // ZBP_SIM_CMP_CMP_RUNNER_HH
