#include "zbp/runner/job_runner.hh"

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "zbp/common/env.hh"
#include "zbp/common/hash.hh"
#include "zbp/common/log.hh"
#include "zbp/obs/obs_config.hh"
#include "zbp/runner/executor.hh"
#include "zbp/runner/gang_job.hh"
#include "zbp/runner/jsonl_sink.hh"

namespace zbp::runner
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/**
 * A per-job wall-clock deadline: a watcher thread sets the flag once
 * @p seconds pass (the models' run loops turn it into SimCancelled)
 * unless the run ends first.  No thread and no flag without a timeout.
 */
class Deadline
{
  public:
    explicit Deadline(double seconds)
    {
        if (seconds <= 0.0)
            return;
        th = std::thread([this, seconds] {
            std::unique_lock<std::mutex> lk(mu);
            if (!cv.wait_for(lk, std::chrono::duration<double>(seconds),
                             [this] { return ended; }))
                flag.store(true, std::memory_order_relaxed);
        });
    }

    ~Deadline()
    {
        if (!th.joinable())
            return;
        {
            std::lock_guard<std::mutex> lk(mu);
            ended = true;
        }
        cv.notify_all();
        th.join();
    }

    /** The flag to attach to the models, or null without a timeout. */
    const std::atomic<bool> *cancel() const
    {
        return th.joinable() ? &flag : nullptr;
    }

  private:
    std::atomic<bool> flag{false};
    std::mutex mu;
    std::condition_variable cv;
    bool ended = false;
    std::thread th;
};

/** An ok record of the full counter schema, restored; or nullopt
 * (an older or damaged record). */
std::optional<SimJobResult>
resumeResult(const json::Value &rec)
{
    const std::string *trace = rec["trace"].str();
    const auto cpi = rec["cpi"].num();
    SimJobResult r;
    bool complete = trace != nullptr && cpi.has_value();
    for (const cpu::SimCounter &c : cpu::kSimCounters) {
        const auto v = rec[c.name].u64();
        complete &= v.has_value();
        r.result.*c.member = v.value_or(0);
    }
    if (!complete)
        return std::nullopt;
    r.ok = true;
    r.resumed = true;
    r.result.traceName = *trace;
    r.result.cpi = *cpi;
    r.seconds = rec["seconds"].num().value_or(0.0);
    return r;
}

/** The resume key of a record's (config, trace, seed) fields, or
 * nullopt when one is missing or mistyped. */
std::optional<std::string>
recordKey(const json::Value &rec)
{
    const std::string *config = rec["config"].str();
    const std::string *trace = rec["trace"].str();
    const auto seed = rec["seed"].u64();
    if (config == nullptr || trace == nullptr || !seed)
        return std::nullopt;
    return RecordId{*config, *trace, *seed}.key();
}

/** A span named @p name from @p ts (nowUs) until now on @p lane of the
 * runner track; nothing without a trace writer. */
void
runnerSpan(obs::TraceWriter *tw, std::uint32_t lane,
           const std::string &name, double ts, const obs::TraceArgs &args)
{
    if (tw != nullptr)
        tw->span(obs::TraceWriter::kPidRunner, lane, "job", name, ts,
                 tw->nowUs() - ts, args);
}

/**
 * Walk a begun job to completion: restore its snapshot when one
 * exists (rebuilding the job when it is unusable), then advance in
 * chunk windows, stopping at every checkpoint point to publish a
 * snapshot.  With no checkpoint directory this is just the chunked
 * advance.  Each window is a "chunk" span on @p lane.
 */
void
walk(Job &job, const RunPolicy &pol, const std::string &ckpt_path,
     const std::atomic<bool> *cancel, obs::TraceWriter *tw,
     std::uint32_t lane)
{
    if (!ckpt_path.empty() && ckpt::ckptFileExists(ckpt_path)) {
        try {
            const auto bytes = ckpt::loadCkptFile(ckpt_path);
            ckpt::Reader r(bytes.data(), bytes.size());
            job.restore(r);
            r.finish();
            inform("resumed '", job.identity().name, "' from checkpoint at ",
                   job.position(), " instructions");
        } catch (const ckpt::CkptError &e) {
            warn("discarding unusable checkpoint '", ckpt_path, "' (",
                 e.what(), "); running '", job.identity().name,
                 "' from scratch");
            ckpt::removeCkptFile(ckpt_path);
            job.begin(cancel); // a half-restored job is poison
        }
    }
    const bool snapshots = !ckpt_path.empty() && pol.ckptInterval > 0;
    const std::size_t end = job.length();
    std::size_t pos = job.position();
    std::uint64_t next_ckpt = snapshots
            ? pos + pol.ckptInterval
            : std::numeric_limits<std::uint64_t>::max();
    for (;;) {
        std::size_t tgt =
                pos >= end || end - pos <= pol.chunk ? end : pos + pol.chunk;
        if (next_ckpt < tgt)
            tgt = static_cast<std::size_t>(next_ckpt);
        const double ts = tw != nullptr ? tw->nowUs() : 0.0;
        const bool done = job.advance(tgt);
        if (tw != nullptr) // no per-window argument building untraced
            runnerSpan(tw, lane, "chunk", ts,
                       {{"target", obs::jsonNum(std::uint64_t{tgt})}});
        if (done || tgt >= end)
            break;
        if (tgt >= next_ckpt) {
            ckpt::Writer w;
            if (job.save(w)) {
                w.finish();
                ckpt::saveCkptFile(ckpt_path, w);
            }
            next_ckpt = tgt + pol.ckptInterval;
        }
        pos = tgt;
    }
}

} // namespace

std::uint32_t
workerLane(obs::TraceWriter *tw)
{
    static thread_local std::uint32_t lane = 0;
    if (lane == 0)
        lane = tw->newLane(obs::TraceWriter::kPidRunner, "job worker");
    return lane;
}

// ---- identity --------------------------------------------------------

std::string
RecordId::key() const
{
    return config + '\x1f' + trace + '\x1f' + std::to_string(seed);
}

std::string
JobIdentity::ckptPath(const std::string &dir) const
{
    return dir.empty() ? std::string() : ckpt::ckptPathFor(dir, ckptKey);
}

JobIdentity
jobIdentity(const std::string &kind, std::string name,
            std::vector<RecordId> records)
{
    JobIdentity id;
    id.name = std::move(name);
    id.ckptKey = kind;
    for (RecordId &r : records) {
        if (r.seed == 0)
            r.seed = JobRunner::deriveSeed(r.config, r.trace);
        id.ckptKey += '\x1f';
        id.ckptKey += r.key();
    }
    id.records = std::move(records);
    return id;
}

std::string
traceId(const trace::Trace *t)
{
    return t != nullptr ? t->name() : "<null>";
}

RecordId
simJobId(const SimJob &job)
{
    return {job.configName, traceId(job.trace), job.seed};
}

std::uint64_t
JobRunner::deriveSeed(const std::string &config_name,
                      const std::string &trace_name)
{
    std::uint64_t h = fnv1a(config_name + '/' + trace_name);
    // SplitMix64 finalizer: spread the FNV state over all 64 bits.
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
}

// ---- records and resume ------------------------------------------------

std::string
jobRecord(const RecordId &id, const SimJobResult &r)
{
    JsonObject o;
    o.field("trace", id.trace);
    o.field("config", id.config);
    o.field("seed", id.seed);
    o.field("ok", r.ok);
    o.field("seconds", r.seconds);
    if (!r.ok) {
        o.field("error", r.error);
        return o.str();
    }
    o.field("cpi", r.result.cpi);
    for (const cpu::SimCounter &c : cpu::kSimCounters)
        o.field(c.name, r.result.*c.member);
    if (r.telemetry.collected) {
        o.field("queueSeconds", r.telemetry.queueSeconds);
        o.field("loadSeconds", r.telemetry.loadSeconds);
        o.field("runSeconds", r.telemetry.runSeconds);
        o.field("timeoutMargin", r.telemetry.timeoutMargin);
        o.field("queueDepth", r.telemetry.queueDepth);
    }
    return o.str();
}

std::string
jobRecord(const SimJob &job, const SimJobResult &r)
{
    return jobRecord(simJobId(job), r);
}

std::vector<json::Value>
readRecords(const std::string &path)
{
    std::vector<json::Value> records;
    std::ifstream is(path);
    if (!is) {
        warn("results file '", path, "' cannot be opened; ignoring");
        return records;
    }
    std::string line;
    std::size_t malformed = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        // A JSONL record is one complete object per line; anything else
        // is a torn write from a killed sweep or corruption.
        auto rec = json::parse(line);
        if (rec && rec->kind == json::Value::Kind::kObject)
            records.push_back(std::move(*rec));
        else
            ++malformed;
    }
    if (malformed != 0)
        warn("results file '", path, "': skipped ", malformed,
             " malformed line(s)");
    return records;
}

ResumeIndex::ResumeIndex(const std::string &path)
    : ResumeIndex(path.empty() ? std::vector<json::Value>()
                               : readRecords(path))
{}

ResumeIndex::ResumeIndex(std::vector<json::Value> records)
    : all(std::move(records))
{
    std::size_t incomplete = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto key = recordKey(all[i]);
        if (key)
            byKey[*key].push_back(i);
        if (all[i]["ok"].boolean() != true)
            continue; // failed jobs (and CMP sharing lines) re-run
        auto r = resumeResult(all[i]);
        if (!key || !r) {
            // Lacks a field of the schema (an older record format, or
            // a damaged line): re-run the job rather than apply zeros.
            ++incomplete;
            continue;
        }
        results.emplace(*key, std::move(*r)); // the first record wins
    }
    if (incomplete != 0)
        warn("resume: re-running ", incomplete,
             " job(s) whose ok record lacks the full counter schema");
}

const SimJobResult *
ResumeIndex::result(const RecordId &id) const
{
    const auto it = results.find(id.key());
    return it != results.end() ? &it->second : nullptr;
}

std::vector<const json::Value *>
ResumeIndex::records(const RecordId &id) const
{
    std::vector<const json::Value *> out;
    const auto it = byKey.find(id.key());
    if (it != byKey.end())
        for (const std::size_t i : it->second)
            out.push_back(&all[i]);
    return out;
}

// ---- the engine ----------------------------------------------------------

RunPolicy
RunPolicy::fromEnv(unsigned workers)
{
    RunPolicy p;
    p.workers = resolveJobs(workers);
    p.sinkPath = JsonlSink::envPath();
    p.resumePath = envString("ZBP_RESUME_JSONL");
    p.timeout = envSetting("ZBP_JOB_TIMEOUT", 0.0,
                           [](const char *s, double &v) {
        return parseNumber(s, v) && v >= 0.0;
    });
    p.ckptDir = envString("ZBP_CKPT_DIR");
    p.ckptInterval = envSetting("ZBP_CKPT_INTERVAL", std::uint64_t{0},
                                [](const char *s, std::uint64_t &v) {
        return parseNumber(s, v);
    });
    return p;
}

JobRunner::JobRunner(RunPolicy policy) : pol(std::move(policy))
{
    pol.workers = resolveJobs(pol.workers);
    ZBP_ASSERT(pol.chunk >= 1, "walk chunk must be >= 1");
}

std::vector<JobOutcome>
JobRunner::run(const std::vector<Job *> &jobs)
{
    const ResumeIndex prior(pol.resumePath);
    JsonlSink sink(pol.sinkPath);
    std::size_t nrecords = 0;
    for (const Job *j : jobs)
        nrecords += j->identity().records.size();
    ProgressMeter meter(nrecords, pol.progress);
    obs::TraceWriter *const tw = obs::globalTraceWriter();
    const auto submit_at = SteadyClock::now();
    std::atomic<std::uint64_t> nStarted{0};
    std::vector<JobOutcome> outcomes(jobs.size());

    const auto report = [&](const Job &job, const std::string &suffix,
                            double seconds) {
        const auto &recs = job.identity().records;
        for (const RecordId &r : recs)
            meter.jobDone(r.config + "/" + r.trace + suffix,
                          seconds / static_cast<double>(recs.size()));
    };

    ParallelExecutor(pol.workers).run(jobs.size(), [&](std::size_t i) {
        Job &job = *jobs[i];
        JobOutcome &out = outcomes[i];
        const JobIdentity &id = job.identity();
        const std::uint32_t lane = tw != nullptr ? workerLane(tw) : 0;

        if (job.resume(prior)) {
            // Satisfied from the resume file: not re-run, and not
            // re-written (its records are already in that file).
            out.ok = true;
            out.resumed = true;
            if (tw != nullptr)
                tw->instant(obs::TraceWriter::kPidRunner, lane, "job",
                            "job:resumed", tw->nowUs(),
                            {{"job", obs::jsonStr(id.name)}});
            report(job, " (resumed)", 0.0);
            return;
        }

        JobTelemetry &tel = out.telemetry;
        tel.collected = true;
        bool ready = true;
        try {
            job.await();
        } catch (const std::exception &e) {
            out.error = e.what();
            ready = false;
        }
        tel.queueDepth = jobs.size() - (nStarted.fetch_add(1) + 1);
        const auto t0 = SteadyClock::now();
        tel.queueSeconds =
                std::chrono::duration<double>(t0 - submit_at).count();
        const double job_ts = tw != nullptr ? tw->nowUs() : 0.0;
        const std::string ckpt_path = id.ckptPath(pol.ckptDir);
        if (ready) {
            try {
                const Deadline deadline(pol.timeout);
                const auto l0 = SteadyClock::now();
                const double l0_ts = tw != nullptr ? tw->nowUs() : 0.0;
                job.begin(deadline.cancel());
                tel.loadSeconds = secondsSince(l0);
                runnerSpan(tw, lane, "load", l0_ts, {});
                const auto r0 = SteadyClock::now();
                const double r0_ts = tw != nullptr ? tw->nowUs() : 0.0;
                walk(job, pol, ckpt_path, deadline.cancel(), tw, lane);
                job.finish();
                if (!ckpt_path.empty())
                    ckpt::removeCkptFile(ckpt_path);
                tel.runSeconds = secondsSince(r0);
                runnerSpan(tw, lane, "run", r0_ts, {});
                out.ok = true;
            } catch (const cpu::SimCancelled &e) {
                out.error = "timed out after " + std::to_string(pol.timeout) +
                            "s: " + e.what();
            } catch (const std::exception &e) {
                out.error = e.what();
            } catch (...) {
                out.error = "unknown error";
            }
        }
        out.seconds = secondsSince(t0);
        if (pol.timeout > 0.0)
            tel.timeoutMargin = pol.timeout - out.seconds;

        for (const JobRecord &rec : job.close(out)) {
            sink.write(rec.line);
            // A job with a failed record failed, even when the rest of
            // it (a gang's other members) ran to completion.
            if (rec.failed && out.ok) {
                out.ok = false;
                out.error = rec.error;
            }
        }
        if (!out.ok) {
            // Abnormal exit: push everything observability has buffered
            // to disk while the process is still alive to do it.
            obs::obsFlush();
        }
        runnerSpan(tw, lane, "job:" + id.name, job_ts,
                   {{"ok", out.ok ? "true" : "false"}});
        report(job, "", out.seconds);
    });
    return outcomes;
}

std::vector<SimJobResult>
JobRunner::run(const std::vector<SimJob> &jobs)
{
    std::vector<std::unique_ptr<GangJob>> gangs;
    for (const SimJob &j : jobs)
        gangs.push_back(std::make_unique<GangJob>(j));
    run(gangs);
    std::vector<SimJobResult> results;
    results.reserve(jobs.size());
    for (auto &g : gangs)
        results.push_back(std::move(g->results().front()));
    return results;
}

} // namespace zbp::runner
