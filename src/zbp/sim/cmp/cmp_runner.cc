#include "zbp/sim/cmp/cmp_runner.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <unordered_map>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/log.hh"
#include "zbp/obs/obs_config.hh"
#include "zbp/runner/executor.hh"
#include "zbp/runner/jsonl_sink.hh"
#include "zbp/trace/trace_index.hh"

namespace zbp::sim
{

namespace
{

/** Per-worker-thread lane on the orchestration track. */
std::uint32_t
cmpLaneFor(obs::TraceWriter *tw)
{
    static thread_local std::uint32_t lane = 0;
    if (lane == 0)
        lane = tw->newLane(obs::TraceWriter::kPidRunner, "cmp worker");
    return lane;
}

std::string
sharingRecord(const CmpJob &job, std::uint64_t seed, double seconds,
              const CmpResult &r)
{
    runner::JsonObject o;
    o.field("trace", cmpTraceMixId(job.traces));
    o.field("config", cmpSharedConfigName(job.name));
    o.field("seed", seed);
    // ok=false keeps runner::loadResumeResults from treating this
    // CMP-level stats line as a resumable per-core job record.
    o.field("ok", false);
    o.field("cmp", true);
    o.field("seconds", seconds);
    o.field("cores", static_cast<std::uint64_t>(r.core.size()));
    for (const CmpCounter &c : kCmpCounters)
        o.field(c.name, r.*c.member);
    for (const CmpCounterVector &c : kCmpCounterVectors)
        o.field(c.name, r.*c.member);
    o.field("conflictFraction", r.conflictFraction());
    return o.str();
}

/** Index the complete sharing records among @p records by resume
 * identity; a record missing any sharing field is left out, so its job
 * re-runs. */
std::unordered_map<std::string, CmpResult>
loadSharingRecords(const std::vector<json::Value> &records)
{
    std::unordered_map<std::string, CmpResult> out;
    for (const json::Value &rec : records) {
        const auto key = runner::recordResumeKey(rec);
        if (rec["cmp"].boolean() != true || !key)
            continue;
        CmpResult r;
        bool complete = true;
        for (const CmpCounter &c : kCmpCounters) {
            const auto v = rec[c.name].u64();
            complete &= v.has_value();
            r.*c.member = v.value_or(0);
        }
        for (const CmpCounterVector &c : kCmpCounterVectors) {
            const json::Value &arr = rec[c.name];
            complete &= arr.kind == json::Value::Kind::kArray;
            for (const json::Value &x : arr.items) {
                complete &= x.u64().has_value();
                (r.*c.member).push_back(x.u64().value_or(0));
            }
        }
        if (complete)
            out.emplace(*key, std::move(r));
    }
    return out;
}

/**
 * Run a CMP model to completion with optional periodic checkpointing
 * and resume — the CMP twin of the per-core helper in job_runner.cc.
 * With no checkpoint path this is exactly model->run().  @p rebuild
 * reconstructs a fully-wired model after a corrupt restore (a failed
 * restoreState leaves the model half-mutated).
 */
template <typename RebuildFn>
CmpResult
runCmpCheckpointed(std::unique_ptr<CmpModel> &model,
                   const std::vector<const trace::Trace *> &tps,
                   const std::string &ckpt_path, std::uint64_t interval,
                   RebuildFn &&rebuild)
{
    if (ckpt_path.empty())
        return model->run(tps);
    model->beginRun(tps);
    if (ckpt::ckptFileExists(ckpt_path)) {
        try {
            const auto bytes = ckpt::loadCkptFile(ckpt_path);
            ckpt::Reader r(bytes.data(), bytes.size());
            model->restoreState(r);
            r.finish();
            inform("resumed CMP job from checkpoint at ",
                   model->decodedWindow(), " instructions");
        } catch (const ckpt::CkptError &e) {
            warn("discarding unusable CMP checkpoint '", ckpt_path,
                 "' (", e.what(), "); running from scratch");
            ckpt::removeCkptFile(ckpt_path);
            model = rebuild();
            model->beginRun(tps);
        }
    }
    if (interval == 0) {
        model->advance(model->maxInsts());
    } else {
        for (;;) {
            const std::size_t done = model->decodedWindow();
            const std::size_t total = model->maxInsts();
            // The window frontier moves in stepInsts strides and may
            // overshoot the requested target, so clamp defensively.
            const std::size_t step = done >= total
                    ? 0
                    : static_cast<std::size_t>(std::min<std::uint64_t>(
                              interval, total - done));
            if (model->advance(done + step))
                break;
            ckpt::Writer w;
            model->saveState(w);
            w.finish();
            ckpt::saveCkptFile(ckpt_path, w);
        }
    }
    CmpResult r = model->finishRun();
    ckpt::removeCkptFile(ckpt_path);
    return r;
}

unsigned
positiveFromEnv(const char *var)
{
    const char *s = std::getenv(var);
    if (s == nullptr || *s == '\0')
        return 0;
    char *end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v < 1) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("ignoring bad ", var, " '", s, "'");
        return 0;
    }
    return static_cast<unsigned>(v);
}

} // namespace

std::string
cmpCoreConfigName(const std::string &name, unsigned i)
{
    return name + "#c" + std::to_string(i);
}

std::string
cmpSharedConfigName(const std::string &name)
{
    return name + "#shared";
}

std::string
cmpTraceMixId(const std::vector<trace::TraceHandle> &traces)
{
    std::string mix;
    for (const auto &t : traces) {
        if (!mix.empty())
            mix += '+';
        mix += t->name();
    }
    return mix;
}

unsigned
cmpCoresFromEnv()
{
    return positiveFromEnv("ZBP_CMP_CORES");
}

unsigned
cmpBanksFromEnv()
{
    return positiveFromEnv("ZBP_BTB2_BANKS");
}

preload::ArbPolicy
cmpArbPolicyFromEnv(preload::ArbPolicy dflt)
{
    const char *s = std::getenv("ZBP_CMP_ARB");
    if (s == nullptr || *s == '\0')
        return dflt;
    const std::string v(s);
    if (v == "fcfs")
        return preload::ArbPolicy::kFcfs;
    if (v == "tdm")
        return preload::ArbPolicy::kTdm;
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
        warn("ignoring bad ZBP_CMP_ARB '", v, "' (want fcfs or tdm)");
    return dflt;
}

CmpRunner::CmpRunner(unsigned jobs) : nJobs(runner::resolveJobs(jobs)) {}

void
CmpRunner::setProgress(runner::ProgressMeter::Callback cb)
{
    progress = std::move(cb);
}

void
CmpRunner::setSinkPath(std::string path)
{
    sinkPath = std::move(path);
    sinkPathSet = true;
}

void
CmpRunner::setResumePath(std::string path)
{
    resumePath = std::move(path);
    resumePathSet = true;
}

std::vector<CmpJobResult>
CmpRunner::run(const std::vector<CmpJob> &jobs)
{
    using SteadyClock = std::chrono::steady_clock;

    const std::string rpath =
            resumePathSet ? resumePath : runner::resumePathFromEnv();
    std::unordered_map<std::string, runner::SimJobResult> prior;
    std::unordered_map<std::string, CmpResult> prior_sharing;
    if (!rpath.empty()) {
        const auto records = runner::readRecords(rpath);
        prior = runner::loadResumeResults(records);
        prior_sharing = loadSharingRecords(records);
    }

    runner::JsonlSink sink(sinkPathSet ? sinkPath
                                       : runner::JsonlSink::envPath());
    runner::ProgressMeter meter(jobs.size(), progress);
    std::vector<CmpJobResult> results(jobs.size());

    obs::TraceWriter *const tw = obs::globalTraceWriter();
    obs::IntervalWriter *const iw = obs::globalIntervalWriter();
    const std::uint64_t obs_interval = obs::globalIntervalInsts();
    const std::string ckpt_dir = ckpt::ckptDirFromEnv();
    const std::uint64_t ckpt_interval = ckpt::ckptIntervalFromEnv();
    const auto submit_at = SteadyClock::now();
    std::atomic<std::uint64_t> nStarted{0};

    const runner::ParallelExecutor exec(nJobs);
    exec.run(jobs.size(), [&](std::size_t ji) {
        const CmpJob &job = jobs[ji];
        CmpJobResult &out = results[ji];
        const unsigned n = static_cast<unsigned>(job.traces.size());

        const std::uint64_t queue_depth =
                jobs.size() - (nStarted.fetch_add(1) + 1);
        const double queue_s = std::chrono::duration<double>(
                SteadyClock::now() - submit_at).count();
        std::uint32_t lane = 0;
        double job_ts = 0.0;
        if (tw != nullptr) {
            lane = cmpLaneFor(tw);
            job_ts = tw->nowUs();
        }

        // Per-core identity, interchangeable with JobRunner's: seed
        // from (config name, trace name) only, never execution order.
        std::vector<std::uint64_t> seeds(n);
        for (unsigned i = 0; i < n; ++i)
            seeds[i] = runner::JobRunner::deriveSeed(
                    cmpCoreConfigName(job.name, i),
                    job.traces[i]->name());
        const std::string mix = cmpTraceMixId(job.traces);
        const std::uint64_t shared_seed = runner::JobRunner::deriveSeed(
                cmpSharedConfigName(job.name), mix);

        // All-or-nothing resume: the job is satisfied only when its
        // sharing record and every per-core record are in the
        // checkpoint.
        const auto shared_hit = prior_sharing.find(runner::resumeKey(
                cmpSharedConfigName(job.name), mix, shared_seed));
        if (shared_hit != prior_sharing.end() && n != 0) {
            CmpResult resumed = shared_hit->second;
            double seconds = 0.0;
            for (unsigned i = 0; i < n; ++i) {
                const auto it = prior.find(runner::resumeKey(
                        cmpCoreConfigName(job.name, i),
                        job.traces[i]->name(), seeds[i]));
                if (it == prior.end())
                    break;
                resumed.core.push_back(it->second.result);
                seconds += it->second.seconds;
            }
            if (resumed.core.size() == n) {
                out.ok = true;
                out.resumed = true;
                out.seconds = seconds;
                out.result = std::move(resumed);
                meter.jobDone(job.name + " (resumed)", 0.0);
                return;
            }
        }

        const auto t0 = SteadyClock::now();
        try {
            // Shared read-only sidecars, deduplicated by trace: a
            // homogeneous mix indexes its one trace once, not once per
            // core.  The job's cores share one machine configuration,
            // so one D-cache outcome map per distinct trace suffices.
            std::unordered_map<const trace::Trace *,
                               std::unique_ptr<trace::TraceIndex>> indexes;
            std::unordered_map<const trace::Trace *,
                               std::vector<std::uint8_t>> dmaps;
            std::vector<const trace::Trace *> tps(n);
            for (unsigned i = 0; i < n; ++i) {
                const trace::Trace *tp = &*job.traces[i];
                tps[i] = tp;
                auto &idx = indexes[tp];
                if (!idx)
                    idx = std::make_unique<trace::TraceIndex>(*tp);
                if (job.cfg.dcacheEnabled) {
                    auto &map = dmaps[tp];
                    if (map.empty())
                        map = cache::computeDataMissMap(*tp,
                                                        job.cfg.dcache);
                }
            }

            const auto buildModel = [&] {
                auto m = std::make_unique<CmpModel>(job.cfg);
                if (iw != nullptr)
                    m->attachObs(iw, obs_interval, job.name);
                if (tw != nullptr)
                    m->attachTracer(tw);
                for (unsigned i = 0; i < n; ++i) {
                    m->setTraceIndex(i, indexes[tps[i]].get());
                    if (job.cfg.dcacheEnabled)
                        m->setDataMissMap(i, &dmaps[tps[i]]);
                }
                return m;
            };
            auto model = buildModel();
            const std::string ckpt_path = ckpt_dir.empty()
                    ? std::string()
                    : ckpt::ckptPathFor(ckpt_dir,
                                        "cmp\x1f" + job.name + "\x1f" +
                                                mix);
            out.result = runCmpCheckpointed(model, tps, ckpt_path,
                                            ckpt_interval, buildModel);
            out.ok = true;
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
            // The process may be dying with the job; push buffered
            // observability rows to disk first.
            obs::obsFlush();
        }
        out.seconds = std::chrono::duration<double>(SteadyClock::now() -
                                                    t0).count();

        if (out.ok) {
            // Per-core records, byte-compatible with the generic
            // runner path; job wall-clock split evenly (cores of a CMP
            // advance in lockstep, their time is not separable).
            for (unsigned i = 0; i < n; ++i) {
                runner::SimJob cj(cmpCoreConfigName(job.name, i),
                                  job.cfg, &*job.traces[i], seeds[i]);
                runner::SimJobResult cr;
                cr.ok = true;
                cr.seconds = out.seconds / n;
                cr.result = out.result.core[i];
                cr.telemetry.collected = true;
                cr.telemetry.queueSeconds = queue_s;
                cr.telemetry.queueDepth = queue_depth;
                cr.telemetry.runSeconds = cr.seconds;
                sink.write(runner::jobRecord(cj, cr));
            }
            sink.write(sharingRecord(job, shared_seed, out.seconds,
                                     out.result));
        } else {
            // One failure record under the job's own name so the
            // failed sweep is visible in the results file.
            runner::SimJob cj(job.name, job.cfg,
                              n != 0 ? &*job.traces[0] : nullptr, 0);
            runner::SimJobResult cr;
            cr.ok = false;
            cr.error = out.error;
            cr.seconds = out.seconds;
            sink.write(runner::jobRecord(cj, cr));
        }
        if (tw != nullptr)
            tw->span(obs::TraceWriter::kPidRunner, lane, "cmp",
                     std::string("cmp:") + job.name, job_ts,
                     tw->nowUs() - job_ts,
                     {{"ok", out.ok ? "true" : "false"},
                      {"cores", obs::jsonNum(
                               static_cast<std::uint64_t>(n))}});
        meter.jobDone(job.name, out.seconds);
    });
    return results;
}

} // namespace zbp::sim
