#include "zbp/sample/sample_runner.hh"

#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "zbp/obs/obs_config.hh"
#include "zbp/obs/trace_writer.hh"
#include "zbp/runner/executor.hh"
#include "zbp/runner/job_runner.hh"
#include "zbp/runner/jsonl_sink.hh"
#include "zbp/sample/snapshot_fanout.hh"
#include "zbp/trace/trace_index.hh"

namespace zbp::sample
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
            .count();
}

/** cycles / instructions, 0 for an empty window. */
double
cpiOf(const cpu::SimResult &r)
{
    return r.instructions > 0 ? static_cast<double>(r.cycles) /
                                        static_cast<double>(r.instructions)
                              : 0.0;
}

/** end - start over every counter (the "what happened in between"
 * delta; every counter is monotone so the subtraction never wraps). */
cpu::SimResult
subtractResult(const cpu::SimResult &end, const cpu::SimResult &start)
{
    cpu::SimResult d;
    d.traceName = end.traceName;
    for (const cpu::SimCounter &c : cpu::kSimCounters)
        d.*c.member = end.*c.member - start.*c.member;
    d.cpi = cpiOf(d);
    return d;
}

} // namespace

SampleRunner::SampleRunner(SampleParams p, unsigned jobs)
    : prm(p), nJobs(runner::resolveJobs(jobs))
{}

void
SampleRunner::setSinkPath(std::string path)
{
    sinkPath = std::move(path);
    sinkPathSet = true;
}

void
SampleRunner::setResumePath(std::string path)
{
    resumePath = std::move(path);
    resumePathSet = true;
}

std::string
SampleRunner::intervalConfigName(const std::string &config, std::size_t k)
{
    return config + "#iv" + std::to_string(k);
}

SampleReport
SampleRunner::run(const std::string &config_name,
                  const core::MachineParams &cfg, const trace::Trace &t)
{
    const auto t0 = std::chrono::steady_clock::now();
    const auto plan = planIntervals(t.size(), prm);

    obs::TraceWriter *tw = obs::globalTraceWriter();
    std::uint32_t lane = 0;
    if (tw != nullptr)
        lane = tw->newLane(obs::TraceWriter::kPidRunner, "sampled sim");

    // Serial half: one front-to-back warm-up pass over the trace,
    // snapshotting at every interval boundary.
    const trace::TraceIndex tidx(t);
    FanoutResult fan;
    {
        const double ts = tw != nullptr ? tw->nowUs() : 0.0;
        cpu::CoreModel warm(cfg);
        warm.setTraceIndex(&tidx);
        fan = runWarmupFanout(warm, t, plan, prm.mode);
        if (tw != nullptr)
            tw->span(obs::TraceWriter::kPidRunner, lane, "sample",
                     "warm-up:" + std::string(to_string(prm.mode)), ts,
                     tw->nowUs() - ts,
                     {{"instructions",
                       obs::jsonNum(std::uint64_t{fan.instructions})},
                      {"snapshots",
                       obs::jsonNum(std::uint64_t{plan.size()})}});
    }

    // Parallel half: every measurement interval is an independent
    // detailed job (restore, re-warm in fast mode, measure a window).
    const std::string sink_path =
            sinkPathSet ? sinkPath : runner::JsonlSink::envPath();
    runner::JsonlSink sink(sink_path);
    const std::string resume_path =
            resumePathSet ? resumePath : runner::resumePathFromEnv();
    const auto resume =
            resume_path.empty()
                    ? std::unordered_map<std::string,
                                         runner::SimJobResult>{}
                    : runner::loadResumeResults(
                              runner::readRecords(resume_path));

    std::vector<cpu::SimResult> deltas(plan.size());
    std::vector<bool> resumed(plan.size(), false);
    std::vector<double> seconds(plan.size(), 0.0);

    const double iv_ts = tw != nullptr ? tw->nowUs() : 0.0;
    const runner::ParallelExecutor pool(nJobs);
    const auto failures = pool.run(plan.size(), [&](std::size_t i) {
        const IntervalPlan &iv = plan[i];
        const std::string iv_name =
                intervalConfigName(config_name, iv.index);
        const std::uint64_t seed =
                runner::JobRunner::deriveSeed(iv_name, t.name());

        const auto hit =
                resume.find(runner::resumeKey(iv_name, t.name(), seed));
        if (hit != resume.end()) {
            deltas[i] = hit->second.result;
            resumed[i] = true;
            return;
        }

        const auto j0 = std::chrono::steady_clock::now();
        cpu::CoreModel m(cfg);
        m.setTraceIndex(&tidx);
        m.beginRun(t);
        if (iv.snapshotAt > 0) {
            ckpt::Reader r = fan.snapshots[i].reader();
            m.restoreState(r);
            r.finish();
        }
        m.advance(iv.measureBegin); // fast-mode detailed re-warm
        const cpu::SimResult start = m.interimResult();
        m.advance(iv.measureEnd);
        const bool closes_run =
                prm.mode == SampleMode::kExact && iv.measureEnd == t.size();
        const cpu::SimResult end =
                closes_run ? m.finishRun() : m.interimResult();
        deltas[i] = subtractResult(end, start);
        seconds[i] = secondsSince(j0);

        runner::SimJob job(iv_name, cfg, &t, seed);
        runner::SimJobResult jr;
        jr.ok = true;
        jr.seconds = seconds[i];
        jr.result = deltas[i];
        sink.write(runner::jobRecord(job, jr));
    });
    if (tw != nullptr)
        tw->span(obs::TraceWriter::kPidRunner, lane, "sample",
                 "intervals", iv_ts, tw->nowUs() - iv_ts,
                 {{"intervals", obs::jsonNum(std::uint64_t{plan.size()})},
                  {"failures",
                   obs::jsonNum(std::uint64_t{failures.size()})}});
    if (!failures.empty()) {
        obs::obsFlush();
        throw std::runtime_error(
                "sample: interval " +
                std::to_string(plan[failures.front().index].index) +
                " failed: " + failures.front().message + " (" +
                std::to_string(failures.size()) + " of " +
                std::to_string(plan.size()) + " intervals failed)");
    }

    // Stitch.
    SampleReport rep;
    rep.stitched.traceName = t.name();
    for (const auto &d : deltas)
        for (const cpu::SimCounter &c : cpu::kSimCounters)
            rep.stitched.*c.member += d.*c.member;
    rep.stitched.cpi = cpiOf(rep.stitched);
    rep.exact = prm.mode == SampleMode::kExact;
    if (rep.exact) {
        const std::string err = cpu::simInvariantError(rep.stitched);
        if (!err.empty())
            throw std::logic_error("sample: exact-mode stitch: " + err);
    }

    rep.intervals = plan.size();
    for (std::size_t i = 0; i < plan.size(); ++i) {
        rep.resumedIntervals += resumed[i] ? 1 : 0;
        rep.detailedSeconds += seconds[i];
    }
    rep.coverage = t.size() > 0 ? static_cast<double>(
                                          rep.stitched.instructions) /
                                          static_cast<double>(t.size())
                                : 0.0;
    rep.estimatedCpi = rep.stitched.cpi;

    // Insts-weighted standard error of the per-interval CPI around the
    // stitched mean: the fast-mode error bar (0 for a single interval).
    if (plan.size() > 1 && rep.stitched.instructions > 0) {
        double var = 0.0;
        for (const auto &d : deltas) {
            const double w = static_cast<double>(d.instructions) /
                             static_cast<double>(rep.stitched.instructions);
            const double e = d.cpi - rep.estimatedCpi;
            var += w * e * e;
        }
        rep.cpiErrorBar =
                std::sqrt(var / static_cast<double>(plan.size()));
    }

    rep.warmupInstructions = fan.instructions;
    rep.warmupSeconds = fan.seconds;
    rep.warmupInstsPerSec = fan.instsPerSec;
    rep.wallSeconds = secondsSince(t0);
    return rep;
}

} // namespace zbp::sample
