#include "bench_util.hh"

#include <cstdlib>

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
    if (const char *dir = std::getenv("ZBP_TRACE_CACHE");
        dir != nullptr && *dir != '\0') {
        const auto after = workload::traceCacheStats();
        std::printf("[zbp] suite traces: %llu cache hits, %llu generated "
                    "(ZBP_TRACE_CACHE=%s)\n",
                    static_cast<unsigned long long>(
                            after.hits - before.hits),
                    static_cast<unsigned long long>(
                            after.generated() - before.generated()),
                    dir);
    }
    return out;
}

stats::TextTable
variantCpiTable(const std::string &title, const std::string &what,
                const std::vector<std::string> &suites,
                const std::vector<trace::TraceHandle> &traces,
                const std::vector<Variant> &variants)
{
    stats::TextTable t(title);
    std::vector<std::string> header = {"variant"};
    header.insert(header.end(), suites.begin(), suites.end());
    header.push_back("avg imp% vs no-BTB2");
    t.setHeader(header);

    // Variant-major: job v * |traces| + i is variants[v] over traces[i].
    std::vector<runner::SimJob> jobs;
    for (const auto &v : variants)
        for (const auto &tr : traces)
            jobs.push_back({v.name, v.cfg, tr.get()});
    runner::RunPolicy policy = runner::RunPolicy::fromEnv();
    policy.progress = runner::consoleProgress();
    const auto res = runner::JobRunner(policy).run(jobs);

    auto cpi = [&](std::size_t v, std::size_t i) -> double {
        const auto &r = res[v * traces.size() + i];
        if (!r.ok)
            fatal(what, " job '", jobs[v * traces.size() + i].configName,
                  "' failed: ", r.error);
        return r.result.cpi;
    };

    for (std::size_t v = 0; v < variants.size(); ++v) {
        std::vector<std::string> row = {variants[v].name};
        double sum_imp = 0.0;
        for (std::size_t i = 0; i < traces.size(); ++i) {
            row.push_back(stats::TextTable::num(cpi(v, i), 3));
            sum_imp += (cpi(0, i) - cpi(v, i)) / cpi(0, i) * 100.0;
        }
        row.push_back(v == 0 ? std::string("--")
                             : stats::TextTable::num(
                                       sum_imp / traces.size(), 2));
        t.addRow(row);
    }
    progressDone();
    return t;
}

} // namespace zbp::bench
