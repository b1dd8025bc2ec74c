#include "zbp/sim/simulator.hh"

#include "zbp/common/log.hh"
#include "zbp/runner/executor.hh"
#include "zbp/sim/gang_runner.hh"

namespace zbp::sim
{

namespace
{

/** The results of one gang config over @p traces, warning about (and
 * zero-filling) failed cells. */
std::vector<cpu::SimResult>
unpack(const std::string &cfg_name,
       const std::vector<trace::TraceHandle> &traces,
       std::vector<runner::SimJobResult> &&raw)
{
    std::vector<cpu::SimResult> out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (!raw[i].ok) {
            warn("simulation '", cfg_name, "' on '", traces[i]->name(),
                 "' failed: ", raw[i].error);
            cpu::SimResult empty;
            empty.traceName = traces[i]->name();
            out.push_back(std::move(empty));
        } else {
            out.push_back(std::move(raw[i].result));
        }
    }
    return out;
}

} // namespace

double
Fig2Row::btb2Improvement() const
{
    return cpu::cpiImprovement(base, withBtb2);
}

double
Fig2Row::largeBtb1Improvement() const
{
    return cpu::cpiImprovement(base, largeBtb1);
}

double
Fig2Row::effectiveness() const
{
    const double big = largeBtb1Improvement();
    if (big <= 0.0)
        return 0.0;
    return btb2Improvement() / big * 100.0;
}

cpu::SimResult
runOne(const core::MachineParams &cfg, const trace::Trace &t)
{
    cpu::CoreModel model(cfg);
    return model.run(t);
}

std::vector<Fig2Row>
runFig2Rows(const std::vector<trace::TraceHandle> &traces, unsigned jobs)
{
    std::vector<GangConfig> gang = {
        {"no-btb2", configNoBtb2()},
        {"btb2", configBtb2()},
        {"large-btb1", configLargeBtb1()},
    };
    // Sweep path: counters only, no per-run stats-text formatting.
    for (auto &c : gang)
        c.cfg.collectStatsText = false;

    runner::RunPolicy policy = runner::RunPolicy::fromEnv(jobs);
    policy.progress = runner::consoleProgress(); // tty-only status line
    auto res = runGangs(policy, gang, traces);
    std::vector<std::vector<cpu::SimResult>> per_cfg;
    for (std::size_t ci = 0; ci < gang.size(); ++ci)
        per_cfg.push_back(unpack(gang[ci].name, traces, std::move(res[ci])));
    std::vector<Fig2Row> rows(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        rows[i].trace = traces[i]->name();
        rows[i].base = std::move(per_cfg[0][i]);
        rows[i].withBtb2 = std::move(per_cfg[1][i]);
        rows[i].largeBtb1 = std::move(per_cfg[2][i]);
    }
    return rows;
}

std::vector<Fig2Row>
runFig2Rows(const std::vector<trace::Trace> &traces, unsigned jobs)
{
    std::vector<trace::TraceHandle> handles;
    handles.reserve(traces.size());
    for (const auto &t : traces)
        handles.push_back(trace::borrowTrace(t));
    return runFig2Rows(handles, jobs);
}

SuiteRunner::SuiteRunner(double scale)
{
    const auto &specs = workload::paperSuites();
    tr.resize(specs.size());
    // Suite loading is seeded per spec (and cache-keyed on the recipe),
    // so sharding it is as deterministic as the simulations themselves.
    runner::ParallelExecutor exec;
    const auto failures = exec.run(specs.size(), [&](std::size_t i) {
        tr[i] = workload::suiteTraceHandle(specs[i], scale);
    });
    for (const auto &f : failures)
        panic("suite '", specs[f.index].name, "' failed to load: ",
              f.message);
}

std::vector<std::vector<double>>
SuiteRunner::sweepImprovements(const std::vector<core::MachineParams> &cfgs)
{
    std::vector<std::vector<double>> out;
    out.reserve(cfgs.size());

    // One gang per trace: [baseline if missing] + every sweep point.
    std::vector<GangConfig> gang;
    const bool need_base = base.empty();
    if (need_base) {
        core::MachineParams b = configNoBtb2();
        b.collectStatsText = false;
        gang.push_back({"baseline", std::move(b)});
    }
    for (const auto &c : cfgs) {
        core::MachineParams s = c;
        s.collectStatsText = false;
        gang.push_back({describe(c), std::move(s)});
    }
    if (gang.empty())
        return out;

    runner::RunPolicy policy = runner::RunPolicy::fromEnv(jobs);
    if (progress)
        policy.progress = [cb = progress](const runner::ProgressMeter::Event
                                                  &e) { cb(e.label); };
    auto res = runGangs(policy, gang, tr);

    std::size_t at = 0;
    if (need_base)
        base = unpack("baseline", tr, std::move(res[at++]));
    for (const auto &c : cfgs) {
        const auto results = unpack(describe(c), tr, std::move(res[at++]));
        std::vector<double> imp;
        imp.reserve(tr.size());
        for (std::size_t i = 0; i < tr.size(); ++i)
            imp.push_back(cpu::cpiImprovement(base[i], results[i]));
        out.push_back(std::move(imp));
    }
    return out;
}

std::vector<double>
SuiteRunner::averageImprovements(const std::vector<core::MachineParams> &cfgs)
{
    const auto rows = sweepImprovements(cfgs);
    std::vector<double> means;
    means.reserve(rows.size());
    for (const auto &imps : rows) {
        double sum = 0.0;
        for (double v : imps)
            sum += v;
        means.push_back(imps.empty()
                                ? 0.0
                                : sum / static_cast<double>(imps.size()));
    }
    return means;
}

void
SuiteRunner::setProgress(std::function<void(const std::string &)> cb)
{
    progress = std::move(cb);
}

} // namespace zbp::sim
