#include "zbp/runner/gang_job.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "zbp/obs/obs_config.hh"

namespace zbp::runner
{

namespace
{

/** The identity of @p configs over the trace named @p trace. */
JobIdentity
gangIdentity(const std::vector<GangConfig> &configs,
             const std::string &trace, std::uint64_t seed)
{
    std::vector<RecordId> records;
    for (const GangConfig &c : configs)
        records.push_back({c.name, trace, seed});
    std::string name = configs.size() == 1 ? configs[0].name : "gang";
    return jobIdentity("gang", name + "/" + trace, std::move(records));
}

} // namespace

GangJob::GangJob(std::vector<GangConfig> configs, const trace::Trace *t,
                 std::uint64_t seed)
    : Job(gangIdentity(configs, traceId(t), seed)),
      cfgs(std::move(configs)), tr(t), res(cfgs.size())
{
    ZBP_ASSERT(!cfgs.empty(), "a gang needs at least one config");
    // Members' records are keyed by name: two alike would collide.
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (cfgs[i].name == cfgs[j].name)
                throw std::invalid_argument("gang member name '" +
                                            cfgs[i].name +
                                            "' is not unique");
}

GangJob::GangJob(const SimJob &job)
    : GangJob({{job.configName, job.cfg}}, job.trace, job.seed)
{}

bool
GangJob::resume(const ResumeIndex &prior)
{
    bool all = true;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        if (const SimJobResult *r = prior.result(identity().records[i]))
            res[i] = *r;
        else
            all = false;
    }
    return all;
}

void
GangJob::fail(std::size_t i, const std::string &what)
{
    res[i].ok = false;
    res[i].error = what;
    members[i].model.reset();
}

void
GangJob::build(std::size_t i)
{
    const core::MachineParams &cfg = cfgs[i].cfg;
    try {
        cfg.validate(); // before its D-cache geometry builds a map
        // D-cache outcome maps are keyed by geometry: one per distinct
        // (size, ways, line) in the gang.
        const std::vector<std::uint8_t> *dmiss = nullptr;
        if (cfg.dcacheEnabled) {
            for (const auto &[geom, map] : dmaps)
                if (cache::sameDataMissGeometry(geom, cfg.dcache))
                    dmiss = &map;
            if (dmiss == nullptr) {
                dmaps.emplace_back(cfg.dcache,
                                   cache::computeDataMissMap(*tr, cfg.dcache));
                dmiss = &dmaps.back().second;
            }
        }
        auto m = std::make_unique<cpu::CoreModel>(cfg);
        m->setDataMissMap(dmiss);
        if (obs::IntervalWriter *iw = obs::globalIntervalWriter())
            m->attachObs(iw, obs::globalIntervalInsts(), cfgs[i].name);
        if (obs::TraceWriter *tw = obs::globalTraceWriter())
            m->attachTracer(tw);
        m->setCancelFlag(cancelFlag);
        m->beginRun(*tr);
        members[i].model = std::move(m);
    } catch (const std::exception &e) {
        fail(i, e.what());
    }
}

void
GangJob::begin(const std::atomic<bool> *cancel)
{
    if (tr == nullptr)
        throw std::runtime_error("job has no trace (null trace pointer)");
    cancelFlag = cancel;
    members.clear();
    members.resize(cfgs.size());
    frontier = 0;
    dmaps.clear();
    dmaps.reserve(cfgs.size()); // members hold pointers into it
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        if (res[i].resumed)
            continue;
        res[i] = SimJobResult();
        build(i);
    }
}

bool
GangJob::advance(std::size_t target)
{
    // Every live member decodes the same window before it moves.
    bool live = false;
    for (std::size_t i = 0; i < members.size(); ++i) {
        Member &m = members[i];
        if (!m.model || m.done)
            continue;
        try {
            m.done = m.model->advance(target);
        } catch (const cpu::SimCancelled &) {
            throw; // the whole gang's timeout
        } catch (const std::exception &e) {
            fail(i, e.what());
        }
        live |= m.model && !m.done;
    }
    frontier = target;
    return !live;
}

bool
GangJob::save(ckpt::Writer &w) const
{
    // Snapshot only while the member set is intact: once a member has
    // failed, a snapshot would record a different composition than a
    // clean re-run builds.
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        if (!members[i].model && !res[i].resumed)
            return false;
    state(*this, w);
    return true;
}

void
GangJob::restore(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
GangJob::state(Self &s, Io &io)
{
    // One snapshot per gang: the members advance in lockstep, so it
    // holds the frontier, each member's presence/done flags, and every
    // live member's full machine state.  The member set must match
    // exactly: a snapshot taken with another composition (e.g. a member
    // since satisfied from the resume JSONL) is unusable.
    io.beginSection(ckpt::tag::kGang);
    io.expect(static_cast<std::uint32_t>(s.cfgs.size()), "gang member count");
    io.u64(s.frontier);
    io.check(s.frontier <= s.tr->size(), "gang frontier out of range");
    for (auto &m : s.members) {
        std::uint8_t flags = (m.model ? 1u : 0u) | (m.done ? 2u : 0u);
        io.u8(flags);
        io.check(((flags & 1u) != 0) == (m.model != nullptr),
                 "gang member set mismatch");
        if constexpr (Io::kReading)
            m.done = (flags & 2u) != 0;
    }
    io.endSection();
    for (auto &m : s.members)
        if (m.model)
            io.part(*m.model);
}

void
GangJob::finish()
{
    for (std::size_t i = 0; i < members.size(); ++i) {
        Member &m = members[i];
        if (!m.model)
            continue;
        try {
            res[i].result = m.model->finishRun();
            res[i].ok = true;
        } catch (const cpu::SimCancelled &) {
            throw;
        } catch (const std::exception &e) {
            fail(i, e.what());
        }
        m.model.reset();
    }
}

std::vector<JobRecord>
GangJob::close(const JobOutcome &o)
{
    std::vector<JobRecord> records;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        SimJobResult &r = res[i];
        if (r.resumed)
            continue;
        if (!o.ok) {
            r.ok = false;
            r.error = o.error;
        }
        // Members advance in lockstep: they split the job's wall-clock.
        r.seconds = o.seconds / static_cast<double>(cfgs.size());
        r.telemetry = o.telemetry;
        records.push_back(
                {jobRecord(identity().records[i], r), !r.ok, r.error});
    }
    members.clear();
    dmaps.clear();
    return records;
}

std::vector<std::vector<SimJobResult>>
runGangs(const RunPolicy &policy, const std::vector<GangConfig> &configs,
         const std::vector<trace::TraceHandle> &traces)
{
    // Workers take gangs in submission order, so submit the longest
    // traces first: a long one started late would run alone at the end
    // of the sweep while the other workers idle.
    std::vector<std::size_t> order(traces.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&traces](std::size_t a, std::size_t b) {
                         return traces[a]->size() > traces[b]->size();
                     });
    std::vector<std::unique_ptr<GangJob>> gangs;
    for (const std::size_t t : order)
        gangs.push_back(std::make_unique<GangJob>(configs, traces[t].get()));
    JobRunner(policy).run(gangs);
    std::vector<std::vector<SimJobResult>> out(
            configs.size(), std::vector<SimJobResult>(traces.size()));
    for (std::size_t k = 0; k < order.size(); ++k)
        for (std::size_t c = 0; c < configs.size(); ++c)
            out[c][order[k]] = std::move(gangs[k]->results()[c]);
    return out;
}

} // namespace zbp::runner
