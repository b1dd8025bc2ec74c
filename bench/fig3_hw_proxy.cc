/**
 * @file
 * Figure 3 proxy: the paper reports *hardware* system performance
 * gains from enabling the BTB2 — 5.3% for WASDB+CBW2 on one core and
 * 3.4% for Web CICS/DB2 on four cores — and notes the single-core
 * simulation predicted more (8.5%) because only the L1 caches were
 * finite in the model.
 *
 * Substitution (DESIGN.md §2): we run (a) the WASDB+CBW2 suite on the
 * single-core model, and (b) a 4-way time-sliced multiprogrammed
 * CICS/DB2 workload — four independently generated instances in
 * disjoint address spaces sharing one core's predictor — which stands
 * in for the capacity pressure of the paper's multi-core run.
 */

#include "bench_util.hh"

#include "zbp/runner/executor.hh"
#include "zbp/runner/progress.hh"
#include "zbp/workload/multiprogram.hh"

int
main()
{
    using namespace zbp;
    const double scale = bench::scaleFromEnv();

    stats::TextTable t("Figure 3 proxy: BTB2 benefit on "
                       "hardware-measured workloads");
    t.setHeader({"workload", "cores (paper)", "BTB2 improvement %",
                 "paper hw %"});

    // (a) WASDB+CBW2, single core; (b) Web CICS/DB2, a 4-way
    // time-sliced proxy for the 4-core run.  The five generator calls
    // are sharded; the instance traces then fold into one
    // multiprogrammed trace.
    trace::Trace wasdb;
    std::vector<trace::Trace> instances(4);
    runner::ParallelExecutor gen;
    gen.run(5, [&](std::size_t i) {
        if (i == 0) {
            wasdb = workload::makeSuiteTrace(
                    workload::findSuite("wasdb_cbw2"), scale);
            return;
        }
        const unsigned k = static_cast<unsigned>(i - 1);
        auto spec = workload::findSuite("cicsdb2");
        // Disjoint address spaces and distinct behaviour per instance.
        spec.build.seed += 1000 * (k + 1);
        spec.build.base += Addr{k} << 32;
        spec.gen.seed += 77 * (k + 1);
        spec.gen.dispatcherBase += Addr{k} << 32;
        spec.gen.length /= 4; // keep total run length comparable
        instances[k] = workload::makeSuiteTrace(spec, scale);
    });
    const auto web = workload::multiprogram(instances, 100'000,
                                            "web_cicsdb2_x4");

    // Four simulations (2 workloads x 2 configurations), sharded.
    std::vector<runner::SimJob> jobs;
    const trace::Trace *workloads[] = {&wasdb, &web};
    for (const trace::Trace *tr : workloads) {
        jobs.push_back({"no-btb2", sim::configNoBtb2(), tr});
        jobs.push_back({"btb2", sim::configBtb2(), tr});
    }
    runner::RunPolicy policy = runner::RunPolicy::fromEnv();
    policy.progress = runner::consoleProgress();
    const auto res = runner::JobRunner(policy).run(jobs);
    for (const auto &r : res)
        if (!r.ok)
            fatal("figure 3 job failed: ", r.error);

    t.addRow({"WASDB+CBW2", "1",
              stats::TextTable::num(
                      cpu::cpiImprovement(res[0].result, res[1].result),
                      2),
              "5.3 (sim 8.5)"});
    t.addRow({"Web CICS/DB2 (4-way time-sliced proxy)", "4",
              stats::TextTable::num(
                      cpu::cpiImprovement(res[2].result, res[3].result),
                      2),
              "3.4"});
    bench::progressDone();

    t.addNote("hardware gains are smaller than single-core simulated "
              "gains (finite real memory system); the multiprogrammed "
              "proxy adds the analogous capacity pressure");
    t.print();
    return 0;
}
