#include "zbp/sim/gang_runner.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <unordered_map>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/log.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/obs/obs_config.hh"
#include "zbp/runner/executor.hh"
#include "zbp/runner/jsonl_sink.hh"
#include "zbp/trace/trace_index.hh"

namespace zbp::sim
{

namespace
{

constexpr std::size_t kDefaultChunk = 262144;

/** One config's in-flight state while its gang walks a trace. */
struct GangMember
{
    cpu::CoreModel *model = nullptr; ///< null = resumed or failed
    bool done = false;
    double seconds = 0.0; ///< wall-clock accumulated in this member
};

/** Per-worker-thread lane on the orchestration track. */
std::uint32_t
gangLane(obs::TraceWriter *tw)
{
    static thread_local std::uint32_t lane = 0;
    if (lane == 0)
        lane = tw->newLane(obs::TraceWriter::kPidRunner, "gang worker");
    return lane;
}

} // namespace

std::size_t
gangChunkFromEnv()
{
    const char *s = std::getenv("ZBP_GANG_CHUNK");
    if (s == nullptr || *s == '\0')
        return kDefaultChunk;
    char *end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || v < 1) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("ignoring bad ZBP_GANG_CHUNK '", s, "'");
        return kDefaultChunk;
    }
    return static_cast<std::size_t>(v);
}

GangRunner::GangRunner(std::vector<GangConfig> configs_, unsigned jobs)
    : configs(std::move(configs_)), nJobs(runner::resolveJobs(jobs)),
      chunk(gangChunkFromEnv())
{
    ZBP_ASSERT(!configs.empty(), "a gang needs at least one config");
}

void
GangRunner::setChunk(std::size_t c)
{
    ZBP_ASSERT(c >= 1, "gang chunk must be >= 1");
    chunk = c;
}

void
GangRunner::setProgress(runner::ProgressMeter::Callback cb)
{
    progress = std::move(cb);
}

void
GangRunner::setSinkPath(std::string path)
{
    sinkPath = std::move(path);
    sinkPathSet = true;
}

void
GangRunner::setResumePath(std::string path)
{
    resumePath = std::move(path);
    resumePathSet = true;
}

std::vector<std::vector<runner::SimJobResult>>
GangRunner::run(const std::vector<trace::TraceHandle> &traces)
{
    using SteadyClock = std::chrono::steady_clock;
    const std::size_t nc = configs.size();
    const std::size_t nt = traces.size();

    const std::string rpath =
            resumePathSet ? resumePath : runner::resumePathFromEnv();
    std::unordered_map<std::string, runner::SimJobResult> prior;
    if (!rpath.empty())
        prior = runner::loadResumeResults(runner::readRecords(rpath));

    runner::JsonlSink sink(sinkPathSet ? sinkPath
                                       : runner::JsonlSink::envPath());
    runner::ProgressMeter meter(nc * nt, progress);

    std::vector<std::vector<runner::SimJobResult>> results(nc);
    for (auto &row : results)
        row.resize(nt);

    obs::TraceWriter *const tw = obs::globalTraceWriter();
    obs::IntervalWriter *const iw = obs::globalIntervalWriter();
    const std::uint64_t obs_interval = obs::globalIntervalInsts();
    const std::string ckpt_dir = ckpt::ckptDirFromEnv();
    const std::uint64_t ckpt_interval = ckpt::ckptIntervalFromEnv();
    // One snapshot per (gang, trace): the members advance in lockstep,
    // so a single file holds the frontier plus every member's machine.
    const auto gangCkptKey = [&](const std::string &trace_name) {
        std::string key = "gang";
        for (const GangConfig &gc : configs) {
            key += '\x1f';
            key += gc.name;
        }
        key += '\x1f';
        key += trace_name;
        return key;
    };
    const auto submit_at = SteadyClock::now();
    std::atomic<std::uint64_t> nStarted{0};

    // Per-config seeds depend only on (config, trace) identity —
    // identical to what JobRunner derives, so records and resume keys
    // are interchangeable between the two paths.
    const runner::ParallelExecutor exec(nJobs);
    exec.run(nt, [&](std::size_t ti) {
        const trace::TraceHandle &th = traces[ti];
        const trace::Trace &t = *th;
        const std::size_t n = t.size();

        const std::uint64_t queue_depth =
                nt - (nStarted.fetch_add(1) + 1);
        const double queue_s = std::chrono::duration<double>(
                SteadyClock::now() - submit_at).count();
        std::uint32_t lane = 0;
        double gang_ts = 0.0;
        if (tw != nullptr) {
            lane = gangLane(tw);
            gang_ts = tw->nowUs();
        }

        // The shared read-only sidecars: computed once, consumed by
        // every model of the gang.  D-cache outcome maps are keyed by
        // geometry — one per distinct (size, ways, line) in the gang.
        const trace::TraceIndex index(t);
        std::vector<std::pair<cache::ICacheParams,
                              std::vector<std::uint8_t>>> dmaps;
        const auto dmissFor =
                [&](const core::MachineParams &cfg)
                -> const std::vector<std::uint8_t> * {
            if (!cfg.dcacheEnabled)
                return nullptr;
            for (const auto &[geom, map] : dmaps)
                if (cache::sameDataMissGeometry(geom, cfg.dcache))
                    return &map;
            dmaps.reserve(nc); // keep earlier maps' addresses stable
            dmaps.emplace_back(cfg.dcache,
                               cache::computeDataMissMap(t, cfg.dcache));
            return &dmaps.back().second;
        };

        std::vector<std::unique_ptr<cpu::CoreModel>> models(nc);
        std::vector<GangMember> members(nc);
        std::vector<std::uint64_t> seeds(nc);

        const auto fail = [&](std::size_t ci, const std::string &what) {
            runner::SimJobResult &out = results[ci][ti];
            out.ok = false;
            out.error = what;
            members[ci].model = nullptr;
            models[ci].reset();
            // The process may be about to die with the gang; make sure
            // observability rows collected so far reach the disk.
            obs::obsFlush();
        };

        const auto buildMember = [&](std::size_t ci) {
            models[ci] = std::make_unique<cpu::CoreModel>(configs[ci].cfg);
            models[ci]->setTraceIndex(&index);
            models[ci]->setDataMissMap(dmissFor(configs[ci].cfg));
            if (iw != nullptr)
                models[ci]->attachObs(iw, obs_interval, configs[ci].name);
            if (tw != nullptr)
                models[ci]->attachTracer(tw);
            models[ci]->beginRun(t);
            members[ci].model = models[ci].get();
            members[ci].done = false;
        };

        for (std::size_t ci = 0; ci < nc; ++ci) {
            seeds[ci] = runner::JobRunner::deriveSeed(configs[ci].name,
                                                      t.name());
            results[ci][ti].attempts = 1;
            if (!prior.empty()) {
                const auto it = prior.find(runner::resumeKey(
                        configs[ci].name, t.name(), seeds[ci]));
                if (it != prior.end()) {
                    // Satisfied by the checkpoint: not re-run, not
                    // re-written to the sink.
                    results[ci][ti] = it->second;
                    meter.jobDone(configs[ci].name + "/" + t.name() +
                                          " (resumed)", 0.0);
                    continue;
                }
            }
            const auto t0 = SteadyClock::now();
            try {
                buildMember(ci);
            } catch (const std::exception &e) {
                fail(ci, e.what());
            }
            const double setup_s = std::chrono::duration<double>(
                    SteadyClock::now() - t0).count();
            members[ci].seconds += setup_s;
            results[ci][ti].telemetry.loadSeconds = setup_s;
        }

        // Mid-trace resume: a gang snapshot stores the shared frontier,
        // each member's presence/done flags, and every live member's
        // full machine state.  The member set must match exactly — a
        // checkpoint taken with a different gang composition (e.g. a
        // member since satisfied from the resume JSONL) is unusable.
        std::size_t prev = 0;
        const std::string ckpt_path = ckpt_dir.empty()
                ? std::string()
                : ckpt::ckptPathFor(ckpt_dir, gangCkptKey(t.name()));
        if (!ckpt_path.empty() && ckpt::ckptFileExists(ckpt_path)) {
            try {
                const auto bytes = ckpt::loadCkptFile(ckpt_path);
                ckpt::Reader r(bytes.data(), bytes.size());
                r.openSection(ckpt::tag::kGang);
                if (r.getU32() != nc)
                    throw ckpt::CkptError("gang member count mismatch");
                const std::uint64_t saved_prev = r.getU64();
                if (saved_prev > n)
                    throw ckpt::CkptError("gang frontier out of range");
                std::vector<std::uint8_t> flags(nc);
                for (std::uint8_t &fl : flags)
                    fl = r.getU8();
                r.closeSection();
                for (std::size_t ci = 0; ci < nc; ++ci)
                    if (((flags[ci] & 1u) != 0) !=
                        (members[ci].model != nullptr))
                        throw ckpt::CkptError("gang member set mismatch");
                for (std::size_t ci = 0; ci < nc; ++ci) {
                    if (members[ci].model == nullptr)
                        continue;
                    members[ci].model->restoreState(r);
                    members[ci].done = (flags[ci] & 2u) != 0;
                }
                r.finish();
                prev = static_cast<std::size_t>(saved_prev);
                inform("resumed gang over '", t.name(),
                       "' from checkpoint at ", prev, " instructions");
            } catch (const ckpt::CkptError &e) {
                warn("discarding unusable gang checkpoint '", ckpt_path,
                     "' (", e.what(), "); running '", t.name(),
                     "' from scratch");
                ckpt::removeCkptFile(ckpt_path);
                prev = 0;
                // A failed restore leaves earlier members half-mutated;
                // rebuild every modelled member from scratch.
                for (std::size_t ci = 0; ci < nc; ++ci) {
                    if (members[ci].model == nullptr)
                        continue;
                    try {
                        buildMember(ci);
                    } catch (const std::exception &e2) {
                        fail(ci, e2.what());
                    }
                }
            }
        }
        std::uint64_t next_ckpt_at = prev + ckpt_interval;

        // Chunk-interleaved walk: every live member decodes the same
        // [prev, target) instruction window before the window moves.
        for (;;) {
            const std::size_t tgt = std::min(prev + chunk, n);
            std::uint64_t live = 0;
            bool any_live = false;
            const double chunk_ts = tw != nullptr ? tw->nowUs() : 0.0;
            for (std::size_t ci = 0; ci < nc; ++ci) {
                GangMember &m = members[ci];
                if (m.model == nullptr || m.done)
                    continue;
                ++live;
                const auto t0 = SteadyClock::now();
                try {
                    m.done = m.model->advance(tgt);
                } catch (const std::exception &e) {
                    fail(ci, e.what());
                }
                m.seconds += std::chrono::duration<double>(
                        SteadyClock::now() - t0).count();
                any_live |= m.model != nullptr && !m.done;
            }
            if (tw != nullptr && live > 0)
                tw->span(obs::TraceWriter::kPidRunner, lane, "gang",
                         "chunk", chunk_ts, tw->nowUs() - chunk_ts,
                         {{"target", obs::jsonNum(static_cast<
                                   std::uint64_t>(tgt))},
                          {"live", obs::jsonNum(live)}});
            if (!any_live)
                break;
            if (!ckpt_path.empty() && ckpt_interval > 0 &&
                tgt >= next_ckpt_at) {
                // Snapshot only while the member set is intact: once a
                // member has failed, a new snapshot would record a
                // different composition than a clean re-run builds.
                bool intact = true;
                for (std::size_t ci = 0; ci < nc; ++ci)
                    if (members[ci].model == nullptr &&
                        !results[ci][ti].resumed)
                        intact = false;
                if (intact) {
                    ckpt::Writer w;
                    w.beginSection(ckpt::tag::kGang);
                    w.putU32(static_cast<std::uint32_t>(nc));
                    w.putU64(tgt);
                    for (std::size_t ci = 0; ci < nc; ++ci) {
                        std::uint8_t fl = 0;
                        if (members[ci].model != nullptr)
                            fl |= 1u;
                        if (members[ci].done)
                            fl |= 2u;
                        w.putU8(fl);
                    }
                    w.endSection();
                    for (std::size_t ci = 0; ci < nc; ++ci)
                        if (members[ci].model != nullptr)
                            members[ci].model->saveState(w);
                    w.finish();
                    ckpt::saveCkptFile(ckpt_path, w);
                }
                next_ckpt_at = tgt + ckpt_interval;
            }
            prev = tgt;
        }

        for (std::size_t ci = 0; ci < nc; ++ci) {
            GangMember &m = members[ci];
            runner::SimJobResult &out = results[ci][ti];
            if (m.model != nullptr) {
                const auto t0 = SteadyClock::now();
                try {
                    out.result = m.model->finishRun();
                    out.ok = true;
                } catch (const std::exception &e) {
                    fail(ci, e.what());
                }
                m.seconds += std::chrono::duration<double>(
                        SteadyClock::now() - t0).count();
            }
            if (out.resumed)
                continue; // already reported by the resume branch
            out.seconds = m.seconds;
            out.telemetry.collected = true;
            out.telemetry.queueSeconds = queue_s;
            out.telemetry.queueDepth = queue_depth;
            out.telemetry.runSeconds = m.seconds
                    - out.telemetry.loadSeconds;
            runner::SimJob job(configs[ci].name, configs[ci].cfg, &t,
                               seeds[ci]);
            sink.write(runner::jobRecord(job, out));
            meter.jobDone(configs[ci].name + "/" + t.name(),
                          out.seconds);
        }
        if (!ckpt_path.empty())
            ckpt::removeCkptFile(ckpt_path);
        if (tw != nullptr)
            tw->span(obs::TraceWriter::kPidRunner, lane, "gang",
                     std::string("gang:") + t.name(), gang_ts,
                     tw->nowUs() - gang_ts,
                     {{"configs", obs::jsonNum(
                               static_cast<std::uint64_t>(nc))},
                      {"insts", obs::jsonNum(
                               static_cast<std::uint64_t>(n))}});
    });
    return results;
}

} // namespace zbp::sim
