#include "bench_util.hh"

#include "zbp/common/log.hh"
#include "zbp/runner/executor.hh"
#include "zbp/runner/jsonl_sink.hh"
#include "zbp/runner/progress.hh"

namespace zbp::bench
{

void
banner()
{
    static bool printed = false;
    if (printed)
        return;
    printed = true;
    const std::string sink = runner::JsonlSink::envPath();
    std::printf("[zbp] len-scale %.3g (ZBP_LEN_SCALE) | jobs %u "
                "(ZBP_JOBS) | results %s (ZBP_RESULTS_JSONL)\n",
                workload::envLengthScale(), runner::jobsFromEnv(),
                sink.empty() ? "off" : sink.c_str());
}

double
scaleFromEnv()
{
    banner();
    return workload::envLengthScale();
}

std::vector<trace::TraceHandle>
suiteTraces(double scale, const std::vector<std::string> &names)
{
    std::vector<const workload::SuiteSpec *> specs;
    if (names.empty()) {
        for (const auto &s : workload::paperSuites())
            specs.push_back(&s);
    } else {
        for (const auto &n : names)
            specs.push_back(&workload::findSuite(n));
    }
    const auto before = workload::traceCacheStats();
    std::vector<trace::TraceHandle> out(specs.size());
    runner::ParallelExecutor exec;
    const auto failures = exec.run(specs.size(), [&](std::size_t i) {
        out[i] = workload::suiteTraceHandle(*specs[i], scale);
    });
    for (const auto &f : failures)
        fatal("suite '", specs[f.index]->name, "' failed to load: ",
              f.message);
    // Only a ZBP_TRACE_CACHE run counts hits or generations.
    const auto after = workload::traceCacheStats();
    const auto hits = after.hits - before.hits;
    const auto generated = after.generated() - before.generated();
    if (hits + generated != 0)
        std::printf("[zbp] suite traces: %llu cache hits, %llu generated "
                    "(ZBP_TRACE_CACHE)\n",
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(generated));
    return out;
}

std::vector<std::vector<cpu::SimResult>>
sweep(const std::string &what, std::vector<runner::GangConfig> gang,
      const std::vector<trace::TraceHandle> &traces)
{
    for (auto &v : gang)
        v.cfg.collectStatsText = false; // counters only
    runner::RunPolicy policy = runner::RunPolicy::fromEnv();
    policy.progress = runner::consoleProgress();
    auto raw = runner::runGangs(policy, gang, traces);
    std::vector<std::vector<cpu::SimResult>> out(gang.size());
    for (std::size_t v = 0; v < gang.size(); ++v) {
        for (std::size_t t = 0; t < traces.size(); ++t) {
            auto &r = raw[v][t];
            if (!r.ok)
                fatal(what, " variant '", gang[v].name, "' on trace '",
                      traces[t]->name(), "' failed: ", r.error);
            out[v].push_back(std::move(r.result));
        }
    }
    progressDone();
    return out;
}

double
meanImprovement(const std::vector<std::vector<cpu::SimResult>> &res,
                std::size_t v)
{
    double sum = 0.0;
    for (std::size_t t = 0; t < res[v].size(); ++t)
        sum += cpu::cpiImprovement(res[0][t], res[v][t]);
    return sum / static_cast<double>(res[v].size());
}

stats::TextTable
variantCpiTable(const std::string &title, const std::string &what,
                const std::vector<std::string> &suites,
                const std::vector<trace::TraceHandle> &traces,
                const std::vector<runner::GangConfig> &variants)
{
    stats::TextTable t(title);
    std::vector<std::string> header = {"variant"};
    header.insert(header.end(), suites.begin(), suites.end());
    header.push_back("avg imp% vs no-BTB2");
    t.setHeader(header);

    const auto res = sweep(what, variants, traces);
    for (std::size_t v = 0; v < variants.size(); ++v) {
        std::vector<std::string> row = {variants[v].name};
        for (const auto &r : res[v])
            row.push_back(stats::TextTable::num(r.cpi, 3));
        row.push_back(v == 0 ? std::string("--")
                             : stats::TextTable::num(
                                       meanImprovement(res, v), 2));
        t.addRow(row);
    }
    return t;
}

} // namespace zbp::bench
