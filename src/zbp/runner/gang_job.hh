/**
 * @file
 * The core gang job: N >= 1 machine configurations simulated over ONE
 * trace in chunk-interleaved order.
 *
 * Walking a sweep job-per-(config, trace) streams every trace through
 * memory once *per configuration*: a 3-config sweep over a 100 MB trace
 * set reads 300 MB of trace data, and on a machine whose LLC cannot
 * hold a trace, each pass starts cold.  A gang instead walks the sweep
 * trace-major: the engine advances all its members over the same
 * instruction window ([0, C), then [C, 2C), ...) before the window
 * moves, so a chunk of trace is pulled into cache once and consumed by
 * every model while hot.
 *
 * Determinism: CoreModel::advance cuts the run loop only at decode
 * boundaries and the models share nothing but immutable inputs (the
 * trace and its D-miss maps), so per-member results are bit-identical to
 * serial runs — the golden-counter tests and the gang tests pin this,
 * across chunk sizes.
 *
 * A member that throws (wedge, invariant violation, bad config) fails
 * alone: the rest of the gang keeps running and writes its records,
 * and the job's outcome reports the first failed member's error.  A
 * timeout is the whole gang's: the engine cancels the job.
 */

#ifndef ZBP_RUNNER_GANG_JOB_HH
#define ZBP_RUNNER_GANG_JOB_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/runner/job_runner.hh"

namespace zbp::runner
{

/** One member of a gang: a named machine configuration. */
struct GangConfig
{
    std::string name;       ///< label for records, progress and resume
    core::MachineParams cfg;
};

class GangJob final : public Job
{
  public:
    /** Every config of @p configs over @p t, which must outlive the
     * job; a null @p t fails the job when it begins.  Member seeds
     * (record keys only; no model reads them) are @p seed, or 0 to
     * derive them from (name, traceId).  Throws
     * std::invalid_argument if two members share a name. */
    GangJob(std::vector<GangConfig> configs, const trace::Trace *t,
            std::uint64_t seed = 0);

    /** A SimJob as a gang of one, with its seed. */
    explicit GangJob(const SimJob &job);

    /** Member i's result (resumed, run or failed) after the engine
     * ran the job. */
    std::vector<SimJobResult> &results() { return res; }

    bool resume(const ResumeIndex &prior) override;
    void begin(const std::atomic<bool> *cancel) override;
    std::size_t position() const override { return frontier; }
    std::size_t length() const override { return tr->size(); }
    bool advance(std::size_t target) override;
    bool save(ckpt::Writer &w) const override;
    void restore(ckpt::Reader &r) override;
    void finish() override;
    std::vector<JobRecord> close(const JobOutcome &o) override;

  private:
    /** The checkpointed fields, for save and restore. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    /** One config's in-flight state while the gang walks its trace. */
    struct Member
    {
        std::unique_ptr<cpu::CoreModel> model; ///< null = resumed/failed
        bool done = false;
    };

    void build(std::size_t i);
    void fail(std::size_t i, const std::string &what);

    std::vector<GangConfig> cfgs;
    const trace::Trace *tr; ///< borrowed trace, or null
    std::vector<SimJobResult> res;

    // Per run.
    std::vector<std::pair<cache::ICacheParams, std::vector<std::uint8_t>>>
            dmaps;
    const std::atomic<bool> *cancelFlag = nullptr;
    std::vector<Member> members;
    std::size_t frontier = 0;
};

/** Run one gang of @p configs over each of @p traces under @p policy;
 * result[c][t] is config c over trace t.  Gangs are submitted longest
 * trace first (ties in input order), so their records are written in
 * roughly that order, not in trace order. */
std::vector<std::vector<SimJobResult>>
runGangs(const RunPolicy &policy, const std::vector<GangConfig> &configs,
         const std::vector<trace::TraceHandle> &traces);

} // namespace zbp::runner

#endif // ZBP_RUNNER_GANG_JOB_HH
