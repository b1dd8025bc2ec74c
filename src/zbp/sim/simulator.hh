/**
 * @file
 * High-level experiment driver: one simulation in the calling thread,
 * and the Figure 2 comparison with its derived metrics (CPI
 * improvement, BTB2 effectiveness).
 *
 * runFig2Rows shards its simulations across worker threads via
 * zbp::runner (ZBP_JOBS); results are bit-identical to a serial run and
 * each simulation emits one JSONL record when ZBP_RESULTS_JSONL is set.
 * The figure benches' other variant sweeps go through bench::sweep.
 */

#ifndef ZBP_SIM_SIMULATOR_HH
#define ZBP_SIM_SIMULATOR_HH

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

} // namespace zbp::sim

#endif // ZBP_SIM_SIMULATOR_HH
