#include "zbp/sim/simulator.hh"

#include "zbp/common/log.hh"
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

} // namespace zbp::sim
