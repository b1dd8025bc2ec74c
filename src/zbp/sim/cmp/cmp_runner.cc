#include "zbp/sim/cmp/cmp_runner.hh"

#include <optional>
#include <stdexcept>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/common/log.hh"
#include "zbp/obs/obs_config.hh"
#include "zbp/runner/jsonl_sink.hh"

namespace zbp::sim
{

namespace
{

std::string
sharingRecord(const runner::RecordId &id, double seconds, const CmpResult &r)
{
    runner::JsonObject o;
    o.field("trace", id.trace);
    o.field("config", id.config);
    o.field("seed", id.seed);
    // ok=false keeps runner::ResumeIndex from treating this
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

/** The sharing counters of a complete sharing record; nullopt when
 * @p rec is not one or lacks a field (its job then re-runs). */
std::optional<CmpResult>
sharingResult(const json::Value &rec)
{
    if (rec["cmp"].boolean() != true)
        return std::nullopt;
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
    if (!complete)
        return std::nullopt;
    return r;
}

/** Per-core records, then the sharing record. */
runner::JobIdentity
cmpIdentity(const CmpJob &job)
{
    std::vector<runner::RecordId> records;
    for (unsigned i = 0; i < job.traces.size(); ++i)
        records.push_back({cmpCoreConfigName(job.name, i),
                           runner::traceId(job.traces[i].get()), 0});
    records.push_back({cmpSharedConfigName(job.name),
                       cmpTraceMixId(job.traces), 0});
    return runner::jobIdentity("cmp", job.name, std::move(records));
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
        mix += runner::traceId(t.get());
    }
    return mix;
}

CmpChipJob::CmpChipJob(const CmpJob &spec_)
    : Job(cmpIdentity(spec_)), spec(spec_)
{}

bool
CmpChipJob::resume(const runner::ResumeIndex &prior)
{
    // All-or-nothing: the sharing record and every per-core record.
    const auto &ids = identity().records;
    const std::size_t n = spec.traces.size();
    std::optional<CmpResult> r;
    for (const json::Value *rec : prior.records(ids[n]))
        if ((r = sharingResult(*rec)))
            break;
    if (!r || n == 0)
        return false;
    double seconds = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const runner::SimJobResult *core = prior.result(ids[i]);
        if (core == nullptr)
            return false;
        r->core.push_back(core->result);
        seconds += core->seconds;
    }
    res.ok = true;
    res.resumed = true;
    res.seconds = seconds;
    res.result = std::move(*r);
    return true;
}

void
CmpChipJob::begin(const std::atomic<bool> *cancel)
{
    model.reset();
    dmaps.clear();
    spec.cfg.validate(); // before its D-cache geometry builds a map
    // The job's cores share one machine configuration, so one D-cache
    // outcome map per distinct trace suffices: a homogeneous mix maps
    // its one trace once, not once per core.
    const unsigned n = static_cast<unsigned>(spec.traces.size());
    std::vector<const trace::Trace *> tps(n);
    for (unsigned i = 0; i < n; ++i) {
        const trace::Trace *tp = spec.traces[i].get();
        if (tp == nullptr)
            throw std::runtime_error("CMP core " + std::to_string(i) +
                                     " has no trace (null trace handle)");
        tps[i] = tp;
        if (spec.cfg.dcacheEnabled) {
            auto &map = dmaps[tp];
            if (map.empty())
                map = cache::computeDataMissMap(*tp, spec.cfg.dcache);
        }
    }
    model = std::make_unique<CmpModel>(spec.cfg);
    if (obs::IntervalWriter *iw = obs::globalIntervalWriter())
        model->attachObs(iw, obs::globalIntervalInsts(), spec.name);
    if (obs::TraceWriter *tw = obs::globalTraceWriter())
        model->attachTracer(tw);
    if (spec.cfg.dcacheEnabled)
        for (unsigned i = 0; i < n; ++i)
            model->setDataMissMap(i, &dmaps[tps[i]]);
    model->setCancelFlag(cancel);
    model->beginRun(tps);
}

std::vector<runner::JobRecord>
CmpChipJob::close(const runner::JobOutcome &o)
{
    static_cast<runner::JobOutcome &>(res) = o;
    model.reset();
    dmaps.clear();
    const auto &ids = identity().records;
    const std::size_t n = spec.traces.size();
    std::vector<runner::JobRecord> records;
    if (!o.ok) {
        // One failure record under the job's own name so the failed
        // sweep is visible in the results file.
        runner::SimJobResult cr;
        static_cast<runner::JobOutcome &>(cr) = o;
        records.push_back(
                {runner::jobRecord(
                         {spec.name,
                          runner::traceId(n != 0 ? spec.traces[0].get()
                                                 : nullptr),
                          0},
                         cr),
                 true, o.error});
        return records;
    }
    // Per-core records, byte-compatible with the generic path; the job
    // wall-clock split evenly (cores of a CMP advance in lockstep, their
    // time is not separable).
    for (std::size_t i = 0; i < n; ++i) {
        runner::SimJobResult cr;
        static_cast<runner::JobOutcome &>(cr) = o;
        cr.seconds = o.seconds / static_cast<double>(n);
        cr.result = res.result.core[i];
        records.push_back({runner::jobRecord(ids[i], cr)});
    }
    records.push_back({sharingRecord(ids[n], o.seconds, res.result)});
    return records;
}

CmpRunner::CmpRunner(unsigned jobs)
    : CmpRunner(runner::RunPolicy::fromEnv(jobs))
{}

CmpRunner::CmpRunner(runner::RunPolicy policy) : pol(std::move(policy)) {}

std::vector<CmpJobResult>
CmpRunner::run(const std::vector<CmpJob> &jobs)
{
    std::vector<std::unique_ptr<CmpChipJob>> chips;
    for (const CmpJob &j : jobs)
        chips.push_back(std::make_unique<CmpChipJob>(j));
    runner::JobRunner(pol).run(chips);
    std::vector<CmpJobResult> results;
    results.reserve(jobs.size());
    for (auto &c : chips)
        results.push_back(std::move(c->result()));
    return results;
}

} // namespace zbp::sim
