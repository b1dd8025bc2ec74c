/**
 * @file
 * CMP sharing sweep: N cores against one banked, arbitrated BTB2 and a
 * shared L2I, over core count x bank count, for a homogeneous mix
 * (every core runs CICS/DB2 — maximal constructive sharing: the cores
 * prefetch each other's footprint) and a heterogeneous mix (distinct
 * suites per core — maximal destructive sharing: disjoint footprints
 * fight for BTB2 capacity and bank bandwidth).
 *
 * This is the question the paper's time-sliced single-core evaluation
 * cannot answer: there, contexts thrash BTB2 capacity but never coexist,
 * so the second level never sees *concurrent* demand.  Here it does,
 * and the cost shows up as bank conflicts, arbiter queueing, and
 * per-core CPI spread.
 *
 * Environment (besides the usual ZBP_LEN_SCALE / ZBP_JOBS /
 * ZBP_RESULTS_JSONL / ZBP_RESUME_JSONL):
 *   ZBP_CMP_CORES   restrict the sweep to one core count
 *   ZBP_BTB2_BANKS  restrict the sweep to one bank count
 *   ZBP_CMP_ARB     arbitration policy, "fcfs" (default) or "tdm"
 */

#include "bench_util.hh"

#include <algorithm>

#include "zbp/runner/progress.hh"
#include "zbp/sim/cmp/cmp_runner.hh"

namespace
{

using namespace zbp;

/** Per-core CPIs as "c0/c1/..." — the spread is the point. */
std::string
perCoreCpi(const sim::CmpResult &r)
{
    std::string s;
    for (const auto &c : r.core) {
        if (!s.empty())
            s += '/';
        s += stats::TextTable::num(c.cpi, 3);
    }
    return s;
}

} // namespace

int
main()
{
    const double scale = bench::scaleFromEnv();

    // Heterogeneous mix order: the big commercial footprints first so
    // even the 2-core point pairs workloads with little code overlap.
    const std::vector<std::string> heteroNames = {"cicsdb2", "tpf", "ims",
                                                  "wasdb_cbw2"};
    const auto homog = bench::suiteTraces(scale, {"cicsdb2"});
    const auto hetero = bench::suiteTraces(scale, heteroNames);

    std::vector<unsigned> coreCounts = {1, 2, 4};
    std::vector<unsigned> bankCounts = {1, 4};
    if (const unsigned c = sim::cmpCoresFromEnv())
        coreCounts = {c};
    if (const unsigned b = sim::cmpBanksFromEnv())
        bankCounts = {b};
    const preload::ArbPolicy pol =
            sim::cmpArbPolicyFromEnv(preload::ArbPolicy::kFcfs);

    struct MixSpec
    {
        const char *tag;
        const std::vector<trace::TraceHandle> *pool;
    };
    const MixSpec mixes[] = {{"homog", &homog}, {"hetero", &hetero}};

    std::vector<sim::CmpJob> jobs;
    for (const auto &mix : mixes) {
        for (const unsigned cores : coreCounts) {
            for (const unsigned banks : bankCounts) {
                core::MachineParams cfg = sim::configBtb2();
                cfg.cmp.cores = cores;
                cfg.cmp.btb2Banks = banks;
                cfg.cmp.arbPolicy = pol;
                cfg.cmp.sharedL2i = true;
                sim::CmpJob job;
                job.name = std::string("cmp-") + mix.tag + "-c" +
                           std::to_string(cores) + "-b" +
                           std::to_string(banks);
                job.cfg = cfg;
                // Core i runs pool[i % pool size]: homogeneous pools
                // replicate their one trace, heterogeneous pools wrap.
                for (unsigned i = 0; i < cores; ++i)
                    job.traces.push_back(
                            (*mix.pool)[i % mix.pool->size()]);
                jobs.push_back(std::move(job));
            }
        }
    }

    runner::RunPolicy policy = runner::RunPolicy::fromEnv();
    policy.progress = runner::consoleProgress();
    const auto res = sim::CmpRunner(policy).run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!res[i].ok)
            fatal("CMP job ", jobs[i].name, " failed: ", res[i].error);
    bench::progressDone();

    stats::TextTable t(
            "CMP sharing sweep: shared banked BTB2 + shared L2I (" +
            std::string(pol == preload::ArbPolicy::kTdm ? "tdm" : "fcfs") +
            " arbitration, per-core trace " +
            std::to_string(homog[0]->size()) + " insts)");
    t.setHeader({"mix", "cores", "banks", "CPI/core", "avg CPI",
                 "conflict %", "wait cyc", "q-full", "L2I miss %"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const sim::CmpResult &r = res[i].result;
        double cpiSum = 0.0;
        for (const auto &c : r.core)
            cpiSum += c.cpi;
        const std::uint64_t l2iAcc = r.l2iHits + r.l2iMisses;
        const auto &job = jobs[i];
        t.addRow({job.name.substr(4, job.name.find("-c") - 4),
                  std::to_string(job.cfg.cmp.cores),
                  std::to_string(job.cfg.cmp.btb2Banks), perCoreCpi(r),
                  stats::TextTable::num(
                          cpiSum / static_cast<double>(r.core.size()), 4),
                  stats::TextTable::pct(r.conflictFraction() * 100.0, 2),
                  std::to_string(r.arbWaitCycles),
                  std::to_string(r.arbQueueFullRejects),
                  l2iAcc == 0 ? "-"
                              : stats::TextTable::pct(
                                        100.0 *
                                                static_cast<double>(
                                                        r.l2iMisses) /
                                                static_cast<double>(l2iAcc),
                                        2)});
    }
    t.addNote("homog = every core runs cicsdb2 (constructive sharing); "
              "hetero = distinct suites per core (destructive)");
    t.addNote("conflict % = granted BTB2 row reads that waited on a busy "
              "bank; wait cyc = total cycles those grants waited");
    t.print();
    return 0;
}
