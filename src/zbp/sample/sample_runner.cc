#include "zbp/sample/sample_runner.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/obs/obs_config.hh"
#include "zbp/runner/executor.hh"

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

IntervalJob::IntervalJob(const std::string &config,
                         const core::MachineParams &cfg_,
                         const trace::Trace &t, const IntervalPlan &iv_,
                         std::shared_future<ckpt::SnapshotBuffer> snapshot,
                         bool closes_run,
                         const std::vector<std::uint8_t> *dmiss_)
    : Job(runner::jobIdentity(
              "interval",
              SampleRunner::intervalConfigName(config, iv_.index) + "/" +
                      t.name(),
              {{SampleRunner::intervalConfigName(config, iv_.index),
                t.name(), 0}})),
      cfg(cfg_), tr(t), iv(iv_), snap(std::move(snapshot)),
      closesRun(closes_run), dmiss(dmiss_)
{}

bool
IntervalJob::resume(const runner::ResumeIndex &prior)
{
    const runner::SimJobResult *r = prior.result(identity().records[0]);
    if (r != nullptr)
        res = *r;
    return r != nullptr;
}

void
IntervalJob::begin(const std::atomic<bool> *cancel)
{
    res = runner::SimJobResult();
    measuring = false;
    model = std::make_unique<cpu::CoreModel>(cfg);
    model->setCancelFlag(cancel);
    model->setDataMissMap(dmiss);
    model->beginRun(tr);
    if (iv.snapshotAt > 0) {
        ckpt::Reader r = snap.get().reader();
        model->restoreState(r);
        r.finish();
    }
}

bool
IntervalJob::advance(std::size_t target)
{
    if (!measuring) {
        // Fast mode's detailed re-warm up to the window.
        model->advance(std::min(target, iv.measureBegin));
        if (target < iv.measureBegin)
            return false;
        start = model->interimResult();
        measuring = true;
    }
    model->advance(target);
    return target >= iv.measureEnd;
}

bool
IntervalJob::save(ckpt::Writer &w) const
{
    state(*this, w);
    return true;
}

void
IntervalJob::restore(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
IntervalJob::state(Self &s, Io &io)
{
    io.beginSection(ckpt::tag::kJob);
    io.flag(s.measuring);
    for (const cpu::SimCounter &c : cpu::kSimCounters)
        io.u64(s.start.*c.member);
    io.endSection();
    io.part(*s.model);
}

void
IntervalJob::finish()
{
    const cpu::SimResult end =
            closesRun ? model->finishRun() : model->interimResult();
    res.result = subtractResult(end, start);
    model.reset();
}

std::vector<runner::JobRecord>
IntervalJob::close(const runner::JobOutcome &o)
{
    model.reset();
    static_cast<runner::JobOutcome &>(res) = o;
    return {{runner::jobRecord(identity().records[0], res), !o.ok,
             o.error}};
}

SampleRunner::SampleRunner(SampleParams p, unsigned jobs)
    : SampleRunner(p, runner::RunPolicy::fromEnv(jobs))
{}

SampleRunner::SampleRunner(SampleParams p, runner::RunPolicy policy)
    : prm(p), pol(std::move(policy))
{
    pol.workers = runner::resolveJobs(pol.workers);
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
    cfg.validate(); // before any thread builds from it

    obs::TraceWriter *tw = obs::globalTraceWriter();

    // The D-cache outcome map, filled on its own thread a stretch at a
    // time: covered[i] is ready once it reaches mapNeededFor(plan[i]).
    std::vector<std::uint8_t> dmiss(cfg.dcacheEnabled ? t.size() : 0);
    const auto *map = cfg.dcacheEnabled ? &dmiss : nullptr;
    std::vector<std::promise<void>> mapped(plan.size());
    std::vector<std::future<void>> covered;
    for (auto &m : mapped)
        covered.push_back(m.get_future());
    std::jthread mapper([&] {
        std::size_t i = 0;
        try {
            cache::ICache d(cfg.dcache);
            for (std::size_t done = 0; i < plan.size(); ++i) {
                const std::size_t end = map != nullptr
                        ? mapNeededFor(plan[i], t.size(),
                                       cfg.cpu.decodeWidth)
                        : 0;
                cache::fillDataMissMap(t, d, dmiss, done, end);
                done = end;
                mapped[i].set_value();
            }
        } catch (...) {
            for (; i < plan.size(); ++i)
                mapped[i].set_exception(std::current_exception());
        }
    });

    // Serial half, on its own thread: one front-to-back warm-up pass
    // over the trace, handing over a snapshot at every boundary.
    std::vector<std::promise<ckpt::SnapshotBuffer>> snaps(plan.size());
    std::size_t published = 0;
    FanoutResult fan;
    std::exception_ptr warm_error;
    std::jthread warmup([&] {
        const double ts = tw != nullptr ? tw->nowUs() : 0.0;
        std::string why;
        try {
            cpu::CoreModel warm(cfg);
            warm.setDataMissMap(map);
            fan = runWarmupFanout(
                    warm, t, plan, prm.mode,
                    [&](std::size_t i, ckpt::SnapshotBuffer snap) {
                        snaps[i].set_value(std::move(snap));
                        published = i + 1;
                    },
                    [&](std::size_t i) { covered[i].get(); });
        } catch (const std::exception &e) {
            warm_error = std::current_exception();
            why = e.what();
        } catch (...) {
            warm_error = std::current_exception();
            why = "unknown error";
        }
        if (warm_error) {
            const auto failed = std::make_exception_ptr(
                    std::runtime_error("sample: warm-up failed: " + why));
            for (std::size_t i = published; i < snaps.size(); ++i)
                snaps[i].set_exception(failed);
        }
        if (tw != nullptr)
            tw->span(obs::TraceWriter::kPidRunner,
                     tw->newLane(obs::TraceWriter::kPidRunner, "warm-up"),
                     "sample",
                     "warm-up:" + std::string(to_string(prm.mode)), ts,
                     tw->nowUs() - ts,
                     {{"instructions",
                       obs::jsonNum(std::uint64_t{fan.instructions})},
                      {"snapshots",
                       obs::jsonNum(std::uint64_t{plan.size()})},
                      {"ok", warm_error ? "false" : "true"}});
    });

    // Parallel half, beside it: every measurement interval is an
    // independent detailed job (await its snapshot, restore, re-warm
    // in fast mode, measure a window).
    std::vector<std::unique_ptr<IntervalJob>> ivs;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const bool closes_run = prm.mode == SampleMode::kExact &&
                                plan[i].measureEnd == t.size();
        ivs.push_back(std::make_unique<IntervalJob>(
                config_name, cfg, t, plan[i], snaps[i].get_future().share(),
                closes_run, map));
    }
    const double iv_ts = tw != nullptr ? tw->nowUs() : 0.0;
    const auto outcomes = runner::JobRunner(pol).run(ivs);
    warmup.join();
    std::size_t failed = 0;
    std::size_t first_failed = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        if (!outcomes[i].ok && failed++ == 0)
            first_failed = i;
    if (tw != nullptr)
        tw->span(obs::TraceWriter::kPidRunner, runner::workerLane(tw),
                 "sample", "intervals", iv_ts, tw->nowUs() - iv_ts,
                 {{"intervals", obs::jsonNum(std::uint64_t{plan.size()})},
                  {"failures", obs::jsonNum(std::uint64_t{failed})}});
    if (warm_error)
        std::rethrow_exception(warm_error);
    if (failed != 0)
        throw std::runtime_error(
                "sample: interval " +
                std::to_string(plan[first_failed].index) + " failed: " +
                outcomes[first_failed].error + " (" +
                std::to_string(failed) + " of " +
                std::to_string(plan.size()) + " intervals failed)");

    // Stitch.
    SampleReport rep;
    rep.stitched.traceName = t.name();
    for (const auto &iv : ivs)
        for (const cpu::SimCounter &c : cpu::kSimCounters)
            rep.stitched.*c.member += iv->result().result.*c.member;
    rep.stitched.cpi = cpiOf(rep.stitched);
    rep.exact = prm.mode == SampleMode::kExact;
    if (rep.exact) {
        const std::string err = cpu::simInvariantError(rep.stitched);
        if (!err.empty())
            throw std::logic_error("sample: exact-mode stitch: " + err);
    }

    rep.intervals = plan.size();
    for (const runner::JobOutcome &o : outcomes) {
        rep.resumedIntervals += o.resumed ? 1 : 0;
        rep.detailedSeconds += o.seconds;
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
        for (const auto &iv : ivs) {
            const cpu::SimResult &d = iv->result().result;
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
