/**
 * @file
 * Temporal-parallel sampled simulation: one (functional or detailed)
 * warm-up pass fans out in-memory restore points, the measurement
 * intervals run as independent detailed jobs across a worker pool, and
 * their counter deltas are stitched into a whole-run aggregate.
 *
 * The warm-up is the run's only serial work: it walks on its own
 * thread, and interval k starts once snapshot k lands, beside the rest
 * of the walk.  The wait is queue time (runner::Job::await), outside
 * the interval's run, timeout and seconds; a resumed interval
 * never waits; a failed warm-up fails every interval still waiting,
 * and run() rethrows the warm-up's own error.  The D-cache outcome map
 * (cache/dmiss_map.hh) fills on a third thread, ahead of the warm-up,
 * and is shared with every interval.
 *
 * Stitching contract: every SimResult counter is monotone over a run
 * and part of the saved machine state, so the fieldwise difference of
 * two CoreModel::interimResult snapshots is exactly what the machine
 * did in between.  In exact mode the windows tile the trace and the
 * summed deltas are bit-identical to a monolithic CoreModel::run
 * (pinned by tests/sample); in fast mode they are a sample, reported
 * with a coverage ratio and a CPI error bar.
 *
 * Each interval is one IntervalJob on the one engine
 * (runner::JobRunner), so it writes one JSONL record (config
 * "<name>#iv<k>") and honours the same resume, timeout and checkpoint
 * settings as every other job kind: a killed sampled sweep resumes
 * interval-granular.  A record carries every counter, so a
 * stitch over resumed intervals equals a fresh one bit for bit.
 */

#ifndef ZBP_SAMPLE_SAMPLE_RUNNER_HH
#define ZBP_SAMPLE_SAMPLE_RUNNER_HH

#include <cstddef>
#include <future>
#include <memory>
#include <string>

#include "zbp/core/params.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/runner/job_runner.hh"
#include "zbp/sample/sample_params.hh"
#include "zbp/sample/snapshot_fanout.hh"
#include "zbp/trace/trace.hh"

namespace zbp::sample
{

/** Everything one sampled run reports. */
struct SampleReport
{
    /** Fieldwise sum of the measured-window deltas.  Exact mode: the
     * monolithic result, bit-identical counters.  Fast mode: counters
     * over the measured windows only. */
    cpu::SimResult stitched;

    bool exact = false;        ///< windows tiled the whole trace
    double coverage = 0.0;     ///< measured insts / trace insts
    double estimatedCpi = 0.0; ///< stitched cycles / stitched insts
    /** +- one standard error on estimatedCpi across intervals
     * (insts-weighted); 0 with a single interval. */
    double cpiErrorBar = 0.0;

    std::size_t intervals = 0;
    std::size_t resumedIntervals = 0;

    std::size_t warmupInstructions = 0; ///< insts walked by the warm-up
    double warmupSeconds = 0.0;
    double warmupInstsPerSec = 0.0;
    /** Summed per-interval wall clock, snapshot waits excluded. */
    double detailedSeconds = 0.0;
    double wallSeconds = 0.0;     ///< end-to-end wall clock of run()
};

/**
 * One measurement interval as an engine job: wait for the warm-up's
 * snapshot for the interval, restore it, re-warm in detail up to the
 * window (fast mode), then measure the window's counter delta.
 */
class IntervalJob final : public runner::Job
{
  public:
    /** Interval @p iv of config @p config over @p t, restored from
     * @p snapshot once it is ready.  Everything passed by reference
     * must outlive the job, and so must @p dmiss, the shared D-cache
     * outcome map (CoreModel::setDataMissMap; null: the model computes
     * its own).  @p closes_run finishes the run at the window's end
     * (exact mode's last interval), so the delta includes post-run
     * accounting. */
    IntervalJob(const std::string &config, const core::MachineParams &cfg,
                const trace::Trace &t, const IntervalPlan &iv,
                std::shared_future<ckpt::SnapshotBuffer> snapshot,
                bool closes_run,
                const std::vector<std::uint8_t> *dmiss = nullptr);

    /** The measured delta (run or resumed) after the engine ran it. */
    const runner::SimJobResult &result() const { return res; }

    bool resume(const runner::ResumeIndex &prior) override;
    void await() override { snap.get(); }
    void begin(const std::atomic<bool> *cancel) override;
    std::size_t position() const override
    {
        return model->decodedInstructions();
    }
    std::size_t length() const override { return iv.measureEnd; }
    bool advance(std::size_t target) override;
    bool save(ckpt::Writer &w) const override;
    void restore(ckpt::Reader &r) override;
    void finish() override;
    std::vector<runner::JobRecord>
    close(const runner::JobOutcome &o) override;

  private:
    /** The checkpointed fields, for save and restore. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    const core::MachineParams &cfg;
    const trace::Trace &tr;
    IntervalPlan iv;
    std::shared_future<ckpt::SnapshotBuffer> snap;
    bool closesRun;
    const std::vector<std::uint8_t> *dmiss;
    runner::SimJobResult res;
    // Per run.
    std::unique_ptr<cpu::CoreModel> model;
    bool measuring = false;  ///< the window has begun
    cpu::SimResult start;    ///< counters at the window's start
};

/** Runs one configuration over one trace in sampled mode. */
class SampleRunner
{
  public:
    /** @p jobs 0 resolves via ZBP_JOBS / hardware_concurrency; every
     * other setting from the environment (runner::RunPolicy). */
    explicit SampleRunner(SampleParams p, unsigned jobs = 0);
    SampleRunner(SampleParams p, runner::RunPolicy policy);

    unsigned jobs() const { return pol.workers; }

    /**
     * Warm up, fan out, measure, stitch.  Throws std::invalid_argument
     * on unusable parameters or an empty trace, std::runtime_error when
     * any interval job fails (a stitch with holes is meaningless), and
     * std::logic_error when an exact-mode stitch violates the run
     * invariants.
     */
    SampleReport run(const std::string &config_name,
                     const core::MachineParams &cfg,
                     const trace::Trace &t);

    /** The JSONL config label of interval @p k: "<config>#iv<k>". */
    static std::string intervalConfigName(const std::string &config,
                                          std::size_t k);

  private:
    SampleParams prm;
    runner::RunPolicy pol;
};

} // namespace zbp::sample

#endif // ZBP_SAMPLE_SAMPLE_RUNNER_HH
