/**
 * @file
 * High-level experiment driver: run (config x trace) combinations and
 * compute the paper's derived metrics (CPI improvement, BTB2
 * effectiveness).  Every bench binary is a thin wrapper over this.
 *
 * All batch entry points shard their independent simulations across
 * worker threads via zbp::runner (ZBP_JOBS / setJobs()); results are
 * bit-identical to a serial run and each simulation emits one JSONL
 * record when ZBP_RESULTS_JSONL is set.
 */

#ifndef ZBP_SIM_SIMULATOR_HH
#define ZBP_SIM_SIMULATOR_HH

#include <functional>
#include <string>
#include <vector>

#include "zbp/cpu/core_model.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/suites.hh"

namespace zbp::sim
{

/** One trace evaluated under the three Table 3 configurations. */
struct Fig2Row
{
    std::string trace;
    cpu::SimResult base;      ///< config 1: no BTB2
    cpu::SimResult withBtb2;  ///< config 2
    cpu::SimResult largeBtb1; ///< config 3

    /** % CPI improvement of config 2 over config 1. */
    double btb2Improvement() const;
    /** % CPI improvement of config 3 over config 1. */
    double largeBtb1Improvement() const;
    /** BTB2 effectiveness: improvement(2) / improvement(3), in %. */
    double effectiveness() const;
};

/** Run one configuration over one trace (in the calling thread). */
cpu::SimResult runOne(const core::MachineParams &cfg,
                      const trace::Trace &t);

/**
 * Run the Figure 2 comparison for every trace, sharding across worker
 * threads (@p jobs 0 = ZBP_JOBS / auto).  Row order matches @p traces.
 * The 3 configurations run as one gang per trace (runner::GangJob),
 * chunk-interleaved over shared trace bytes.
 */
std::vector<Fig2Row>
runFig2Rows(const std::vector<trace::TraceHandle> &traces,
            unsigned jobs = 0);

/** By-reference convenience overload (traces are borrowed, not
 * copied; they must outlive the call). */
std::vector<Fig2Row> runFig2Rows(const std::vector<trace::Trace> &traces,
                                 unsigned jobs = 0);

/**
 * Loads the 13 paper suites once (through the workload trace cache,
 * shared in-process via TraceHandles — never deep-copied) and amortizes
 * the config-1 baseline runs across parameter sweeps (Figures 5-7).
 * Loading and every batch of simulations run sharded across worker
 * threads.
 */
class SuiteRunner
{
  public:
    /** @p scale multiplies each suite's nominal instruction count. */
    explicit SuiteRunner(double scale);

    const std::vector<trace::TraceHandle> &traces() const { return tr; }

    /** Worker threads for subsequent batches (0 = ZBP_JOBS / auto). */
    void setJobs(unsigned n) { jobs = n; }

    /**
     * Run every config of @p cfgs — plus the baseline if it is not yet
     * computed — as ONE gang per suite trace; result [k][t] is the %
     * CPI improvement of cfgs[k] over the baseline on trace t.  Each
     * (config, trace) writes one JSONL record (config names "baseline"
     * / describe(cfg)).  A failed simulation contributes 0.0 and a
     * warning.
     */
    std::vector<std::vector<double>>
    sweepImprovements(const std::vector<core::MachineParams> &cfgs);

    /** Mean of each sweepImprovements() row — the y-axis of Figures
     * 5/6/7. */
    std::vector<double>
    averageImprovements(const std::vector<core::MachineParams> &cfgs);

    /** Optional progress callback (called once per completed
     * simulation, from the completing worker, serialised). */
    void setProgress(std::function<void(const std::string &)> cb);

  private:
    std::vector<trace::TraceHandle> tr;
    std::vector<cpu::SimResult> base; ///< config 1, run on first use
    std::function<void(const std::string &)> progress;
    unsigned jobs = 0;
};

} // namespace zbp::sim

#endif // ZBP_SIM_SIMULATOR_HH
