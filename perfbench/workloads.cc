#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "counters.hh"
#include "zbp/cache/dmiss_map.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/runner/executor.hh"
#include "zbp/runner/job_runner.hh"
#include "zbp/runner/jsonl_sink.hh"
#include "zbp/sample/sample_runner.hh"
#include "zbp/sample/snapshot_fanout.hh"
#include "zbp/sim/cmp/cmp_runner.hh"
#include "zbp/sim/configs.hh"
#include "zbp/sim/gang_runner.hh"
#include "zbp/sim/simulator.hh"
#include "zbp/trace/trace_index.hh"

namespace perfbench
{

namespace
{

using namespace zbp;
using Metrics = std::map<std::string, double>;

// Published figures the model is compared against (paper §5, Fig. 2).
constexpr double kPaperMeanEffectivenessPct = 52.0;
constexpr double kPaperMaxBtb2GainPct = 13.8;

constexpr double kFullScale = 1.0;
constexpr double kSampledScale = 25.0;
constexpr const char *kSampledSuite = "tpf";
constexpr std::size_t kSampledIntervals = 32;

/** Decode window of the traced CMP walk (any monotone target
 * sequence is bit-identical to one full-length advance). */
constexpr std::size_t kCmpWindow = 262144;

const workload::SuiteSpec &
suiteNamed(const std::vector<workload::SuiteSpec> &suites,
           const std::string &name)
{
    for (const auto &s : suites)
        if (s.name == name)
            return s;
    throw std::invalid_argument("unknown suite " + name);
}

/** Result checks every operation gets: the whole trace was simulated
 * and the counters balance. */
std::string
checkResult(const SimResult &r, std::size_t insts)
{
    if (r.instructions != insts)
        return "simulated " + std::to_string(r.instructions) + " of " +
               std::to_string(insts) + " instructions";
    return cpu::simInvariantError(r);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Time @p set_up (which returns the workload's inputs) and keep its last
 * result.  A cheap set-up is repeated, dropping the earlier results,
 * until about half a second has been timed, so the median it reports
 * is steady; a costly one runs once.  @p start is left at the start of
 * the kept call, which is where the repetition's wall clock begins.
 */
template <typename SetUp>
auto
timedSetUp(SetUp &&set_up, Rep &rep, Clock::time_point &start)
{
    constexpr double kBudgetS = 0.5;
    constexpr std::size_t kMaxSamples = 9;
    std::vector<double> samples;
    double spent = 0.0;
    for (;;) {
        start = Clock::now();
        auto inputs = set_up();
        samples.push_back(secondsSince(start));
        spent += samples.back();
        if (spent >= kBudgetS || samples.size() == kMaxSamples) {
            std::sort(samples.begin(), samples.end());
            const std::size_t n = samples.size();
            rep.setupS = (samples[(n - 1) / 2] + samples[n / 2]) / 2.0;
            return inputs;
        }
    }
}

/** Load (or, priming, generate) @p specs through the shared trace
 * registry on @p jobs workers, as sim::SuiteRunner does.  With a log,
 * every call is one @p span under @p parent. */
std::vector<trace::TraceHandle>
loadTraces(const std::vector<workload::SuiteSpec> &specs, unsigned jobs,
           SpanLog *log = nullptr, const char *span = "",
           std::uint64_t parent = 0)
{
    std::vector<trace::TraceHandle> out(specs.size());
    const runner::ParallelExecutor exec(jobs);
    const auto failures = exec.run(specs.size(), [&](std::size_t i) {
        std::optional<Scope> s;
        if (log != nullptr)
            s.emplace(*log, span, parent);
        out[i] = workload::suiteTraceHandle(specs[i], kFullScale);
    });
    if (!failures.empty())
        throw std::runtime_error("suite '" +
                                 specs[failures.front().index].name +
                                 "' failed to load: " +
                                 failures.front().message);
    return out;
}

/** Fill the run's trace cache before timing: each suite misses once
 * and is generated and published; later repetitions map it warm. */
Metrics
primeTraceCache(SpanLog &log, const std::vector<workload::SuiteSpec> &specs,
                const Context &ctx)
{
    ::setenv("ZBP_TRACE_CACHE", ctx.traceCache.c_str(), 1);
    const unsigned jobs = ctx.jobs;
    double insts = 0.0;
    {
        Scope p(log, "bench.prime");
        for (const auto &h : loadTraces(specs, jobs, &log,
                                        "workload.generate", p.id()))
            insts += static_cast<double>(h->size());
    }
    const double gen = selfSeconds(log.spansOf(0))["workload.generate"];
    return {{"workload.generate_s", gen},
            {"workload.generate_insts_per_s", ratio(insts, gen)}};
}

/** Bytes of a trace and the sidecars built over it. */
double
traceBytes(const trace::Trace &t)
{
    return static_cast<double>(t.size() * sizeof(trace::Instruction));
}

double
indexBytes(const trace::TraceIndex &idx)
{
    return static_cast<double>(idx.size() * (sizeof(Addr) +
                                             sizeof(std::uint64_t)) +
                               idx.branches() * sizeof(std::uint32_t));
}

/** Simulated work of a repetition, summed over its detailed machines. */
struct SimTotals
{
    double insts = 0.0, cycles = 0.0, icMiss = 0.0, dcMiss = 0.0;
    double searches = 0.0, preds = 0.0, missReports = 0.0;
    double b2Insts = 0.0, rowReads = 0.0, transfers = 0.0;
    double fullSearches = 0.0, partialSearches = 0.0;

    void
    add(const SimResult &r, std::uint64_t n_searches, bool btb2)
    {
        insts += static_cast<double>(r.instructions);
        cycles += static_cast<double>(r.cycles);
        icMiss += static_cast<double>(r.icacheMisses);
        dcMiss += static_cast<double>(r.dcacheMisses);
        searches += static_cast<double>(n_searches);
        preds += static_cast<double>(r.predictionsMade);
        missReports += static_cast<double>(r.btb1MissReports);
        if (!btb2)
            return;
        b2Insts += static_cast<double>(r.instructions);
        rowReads += static_cast<double>(r.btb2RowReads);
        transfers += static_cast<double>(r.btb2Transfers);
        fullSearches += static_cast<double>(r.btb2FullSearches);
        partialSearches += static_cast<double>(r.btb2PartialSearches);
    }

    /** @p advance_s: host time of the detailed advance calls;
     * @p sim_cycles: the cycles they simulated. */
    void
    emit(Metrics &m, double advance_s, double sim_cycles) const
    {
        m["cache.icache_mpki"] = 1000.0 * ratio(icMiss, insts);
        m["cache.dcache_mpki"] = 1000.0 * ratio(dcMiss, insts);
        m["core.searches_per_kinst"] = 1000.0 * ratio(searches, insts);
        m["core.preds_per_kinst"] = 1000.0 * ratio(preds, insts);
        m["core.miss_reports_per_kinst"] =
                1000.0 * ratio(missReports, insts);
        m["preload.row_reads_per_kinst"] =
                1000.0 * ratio(rowReads, b2Insts);
        m["preload.transfer_yield"] = ratio(transfers, rowReads);
        m["preload.full_search_frac"] =
                ratio(fullSearches, fullSearches + partialSearches);
        m["cpu.host_ns_per_sim_cycle"] = 1e9 * ratio(advance_s, sim_cycles);
    }
};

/**
 * Per-layer times of one traced repetition: self time per layer call,
 * plus the parallel section's worker busy time and straggler tail
 * (@p section spans the parallel part, @p task one unit of its work).
 */
void
spanMetrics(const std::vector<Span> &spans, const char *section,
            const char *task, unsigned workers, Metrics &m)
{
    auto self = selfSeconds(spans);
    auto total = totalSeconds(spans);
    auto count = spanCounts(spans);
    for (const char *name :
         {"workload.generate", "trace.load", "trace.index",
          "cache.dmiss_map", "cpu.build", "cpu.finish", "ckpt.save",
          "ckpt.restore", "runner.record"})
        if (count[name] > 0)
            m[std::string(name) + "_s"] = self[name];
    m["cpu.advance_s"] = self["cpu.advance"] + self["sim.cmp.step"];
    const double busy = total[task] / std::max(1u, workers);
    m["sim.worker_busy_s"] = busy;
    m["sim.tail_idle_s"] = total[section] - busy;
}

/** Trace-cache lookups since @p before. */
void
cacheMetrics(const workload::TraceCacheStats &before, Metrics &m)
{
    const auto now = workload::traceCacheStats();
    m["trace.cache_hits"] = static_cast<double>(now.hits - before.hits);
    m["trace.cache_misses"] =
            static_cast<double>(now.generated() - before.generated());
}

/** Record one finished (config, trace) job through the runner's own
 * record path, as the library runners do. */
void
writeRecord(runner::JsonlSink &sink, const std::string &config,
            const core::MachineParams &cfg, const trace::Trace &t,
            const SimResult &r, const std::string &error, double seconds,
            double queue_s)
{
    runner::SimJob job(config, cfg, &t,
                       runner::JobRunner::deriveSeed(config, t.name()));
    runner::SimJobResult jr;
    jr.ok = error.empty();
    jr.error = error;
    jr.seconds = seconds;
    jr.result = r;
    jr.telemetry.collected = true;
    jr.telemetry.queueSeconds = queue_s;
    jr.telemetry.runSeconds = seconds;
    sink.write(runner::jobRecord(job, jr));
}

// ---- fig2_full --------------------------------------------------------

std::vector<sim::GangConfig>
fig2Configs()
{
    std::vector<sim::GangConfig> v = {
        {"no-btb2", sim::configNoBtb2()},
        {"btb2", sim::configBtb2()},
        {"large-btb1", sim::configLargeBtb1()},
    };
    for (auto &c : v)
        c.cfg.collectStatsText = false; // as sim::runFig2Rows
    return v;
}

/** Ops and fidelity figures of a Fig. 2 sweep. */
void
fig2Outcome(const std::vector<sim::Fig2Row> &rows,
            const std::vector<trace::TraceHandle> &traces,
            const std::vector<std::vector<std::string>> &errors, Rep &rep)
{
    const auto cfgs = fig2Configs();
    double eff = 0.0;
    double max_gain = -std::numeric_limits<double>::infinity();
    for (std::size_t ti = 0; ti < rows.size(); ++ti) {
        const sim::Fig2Row &row = rows[ti];
        const SimResult *res[] = {&row.base, &row.withBtb2, &row.largeBtb1};
        for (std::size_t ci = 0; ci < 3; ++ci) {
            Op op;
            op.id = cfgs[ci].name + "/" + traces[ti]->name();
            op.digest = Digest().add(*res[ci]).value();
            op.error = errors.empty() || errors[ti][ci].empty()
                               ? checkResult(*res[ci], traces[ti]->size())
                               : errors[ti][ci];
            rep.simInsts += static_cast<double>(res[ci]->instructions);
            rep.ops.push_back(std::move(op));
        }
        eff += row.effectiveness();
        max_gain = std::max(max_gain, row.btb2Improvement());
    }
    rep.metrics["sim.fig2.eff_gap_pp"] = std::abs(
            eff / static_cast<double>(rows.size()) -
            kPaperMeanEffectivenessPct);
    rep.metrics["sim.fig2.gain_gap_pp"] =
            std::abs(max_gain - kPaperMaxBtb2GainPct);
}

class Fig2Full final : public Workload
{
  public:
    explicit Fig2Full(const Context &c) : ctx(c) {}

    Metrics
    prime(SpanLog &log) override
    {
        return primeTraceCache(log, ctx.suites, ctx);
    }

    Rep
    runUntraced() override
    {
        Rep rep;
        Clock::time_point t0;
        const auto traces = timedSetUp(
                [&] { return loadTraces(ctx.suites, ctx.jobs); }, rep, t0);
        const auto rows = sim::runFig2Rows(traces, ctx.jobs);
        rep.wallS = secondsSince(t0);
        fig2Outcome(rows, traces, {}, rep);
        return rep;
    }

    Rep runTraced(SpanLog &log) override;

  private:
    /** One gang member's state while the traced walk steps a trace. */
    struct Member
    {
        std::unique_ptr<cpu::CoreModel> model;
        bool done = false;
        double advanceS = 0.0;
        SimResult result;
        std::uint64_t searches = 0;
        std::string error;
    };

    const Context &ctx;
};

Rep
Fig2Full::runTraced(SpanLog &log)
{
    Rep rep;
    rep.traced = true;
    const auto cfgs = fig2Configs();
    const std::size_t nc = cfgs.size();
    const auto cache0 = workload::traceCacheStats();
    const std::size_t chunk = sim::gangChunkFromEnv();
    std::vector<trace::TraceHandle> traces;
    std::vector<std::vector<Member>> cells;
    std::vector<double> queue_s, bytes;
    {
        const auto t0 = Clock::now();
        Scope root(log, "bench.rep");
        {
            Scope s(log, "bench.setup");
            traces = loadTraces(ctx.suites, ctx.jobs, &log, "trace.load",
                                s.id());
        }
        rep.setupS = secondsSince(t0);
        const std::size_t nt = traces.size();
        cells.resize(nt);
        queue_s.assign(nt, 0.0);
        bytes.assign(nt, 0.0);
        runner::JsonlSink sink(ctx.resultsJsonl);

        Scope sweep(log, "sim.sweep");
        const auto submit = Clock::now();
        runner::ParallelExecutor(ctx.jobs).run(nt, [&](std::size_t ti) {
            queue_s[ti] = secondsSince(submit);
            Scope gang(log, "sim.gang", sweep.id());
            const trace::Trace &t = *traces[ti];
            std::vector<Member> &row = cells[ti];
            row.resize(nc);

            // The walk of sim::GangRunner::run: shared sidecars, one
            // model per config, chunk-interleaved advance, finish,
            // one record per (config, trace).
            std::optional<trace::TraceIndex> index;
            {
                Scope s(log, "trace.index");
                index.emplace(t);
            }
            bytes[ti] = traceBytes(t) + indexBytes(*index);
            std::vector<std::pair<cache::ICacheParams,
                                  std::vector<std::uint8_t>>> dmaps;
            dmaps.reserve(nc); // keep earlier maps' addresses stable
            const auto dmissFor = [&](const core::MachineParams &cfg)
                    -> const std::vector<std::uint8_t> * {
                if (!cfg.dcacheEnabled)
                    return nullptr;
                for (const auto &[geom, map] : dmaps)
                    if (cache::sameDataMissGeometry(geom, cfg.dcache))
                        return &map;
                Scope s(log, "cache.dmiss_map");
                dmaps.emplace_back(cfg.dcache,
                                   cache::computeDataMissMap(t, cfg.dcache));
                bytes[ti] += static_cast<double>(t.size());
                return &dmaps.back().second;
            };

            for (std::size_t ci = 0; ci < nc; ++ci) {
                Member &m = row[ci];
                try {
                    Scope s(log, "cpu.build");
                    m.model = std::make_unique<cpu::CoreModel>(cfgs[ci].cfg);
                    m.model->setTraceIndex(&*index);
                    m.model->setDataMissMap(dmissFor(cfgs[ci].cfg));
                    m.model->beginRun(t);
                } catch (const std::exception &e) {
                    m.error = e.what();
                    m.model.reset();
                }
            }
            for (std::size_t prev = 0;;) {
                const std::size_t tgt = std::min(prev + chunk, t.size());
                bool live = false;
                for (Member &m : row) {
                    if (!m.model || m.done)
                        continue;
                    const auto a0 = Clock::now();
                    try {
                        Scope s(log, "cpu.advance");
                        m.done = m.model->advance(tgt);
                    } catch (const std::exception &e) {
                        m.error = e.what();
                        m.model.reset();
                    }
                    m.advanceS += secondsSince(a0);
                    live = live || (m.model && !m.done);
                }
                if (!live)
                    break;
                prev = tgt;
            }
            for (std::size_t ci = 0; ci < nc; ++ci) {
                Member &m = row[ci];
                if (m.model) {
                    try {
                        Scope s(log, "cpu.finish");
                        m.result = m.model->finishRun();
                        m.searches = m.model->pipeline().searchCount();
                    } catch (const std::exception &e) {
                        m.error = e.what();
                    }
                    m.model.reset();
                }
                Scope s(log, "runner.record");
                writeRecord(sink, cfgs[ci].name, cfgs[ci].cfg, t, m.result,
                            m.error, m.advanceS, queue_s[ti]);
            }
        });
        rep.wallS = secondsSince(t0);
    }

    std::vector<sim::Fig2Row> rows(traces.size());
    std::vector<std::vector<std::string>> errors(traces.size());
    SimTotals tot;
    double adv[3] = {0.0, 0.0, 0.0}, insts[3] = {0.0, 0.0, 0.0};
    double advance_s = 0.0;
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        std::vector<Member> &row = cells[ti];
        rows[ti].trace = traces[ti]->name();
        rows[ti].base = row[0].result;
        rows[ti].withBtb2 = row[1].result;
        rows[ti].largeBtb1 = row[2].result;
        for (std::size_t ci = 0; ci < nc; ++ci) {
            errors[ti].push_back(row[ci].error);
            tot.add(row[ci].result, row[ci].searches,
                    cfgs[ci].cfg.btb2Enabled);
            adv[ci] += row[ci].advanceS;
            insts[ci] += static_cast<double>(row[ci].result.instructions);
            advance_s += row[ci].advanceS;
        }
    }
    fig2Outcome(rows, traces, errors, rep);

    Metrics &m = rep.metrics;
    spanMetrics(log.spansOf(log.currentRun()), "sim.sweep", "sim.gang",
                std::min<unsigned>(ctx.jobs, traces.size()), m);
    tot.emit(m, advance_s, tot.cycles);
    // Configuration differentials on the same traces: the BTB2 engine
    // is what config 2 adds to config 1, the large BTB1 what config 3
    // adds; cfg1 is the base both are read against.
    const double ns1 = 1e9 * ratio(adv[0], insts[0]);
    const double ns2 = 1e9 * ratio(adv[1], insts[1]);
    const double ns3 = 1e9 * ratio(adv[2], insts[2]);
    m["cpu.advance_ns_per_inst.cfg1"] = ns1;
    m["cpu.advance_ns_per_inst.cfg2"] = ns2;
    m["cpu.advance_ns_per_inst.cfg3"] = ns3;
    m["preload.engine_ns_per_inst"] = ns2 - ns1;
    m["core.large_btb1_ns_per_inst"] = ns3 - ns1;
    cacheMetrics(cache0, m);
    double resident = 0.0, queued = 0.0;
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        resident += bytes[ti];
        queued += queue_s[ti];
    }
    m["trace.resident_mb"] = resident / (1024.0 * 1024.0);
    m["runner.queue_s"] = queued;
    m["runner.records"] = static_cast<double>(traces.size() * nc);
    return rep;
}

// ---- cmp4_shared ------------------------------------------------------

/** Heterogeneous mix order of bench/cmp_sharing: the big commercial
 * footprints first so even the 2-core point pairs distinct code. */
const std::vector<std::string> kHeteroSuites = {"cicsdb2", "tpf", "ims",
                                                "wasdb_cbw2"};

class Cmp4Shared final : public Workload
{
  public:
    explicit Cmp4Shared(const Context &c) : ctx(c)
    {
        for (const auto &n : kHeteroSuites)
            specs.push_back(suiteNamed(ctx.suites, n));
    }

    Metrics
    prime(SpanLog &log) override
    {
        return primeTraceCache(log, specs, ctx);
    }

    Rep
    runUntraced() override
    {
        Rep rep;
        Clock::time_point t0;
        const auto jobs = timedSetUp(
                [&] { return makeJobs(loadTraces(specs, ctx.jobs)); }, rep,
                t0);
        sim::CmpRunner cr(ctx.jobs);
        const auto res = cr.run(jobs);
        rep.wallS = secondsSince(t0);
        for (std::size_t j = 0; j < jobs.size(); ++j)
            addOp(jobs[j], res[j].result,
                  res[j].ok ? std::string() : res[j].error, rep);
        return rep;
    }

    Rep runTraced(SpanLog &log) override;

  private:
    /** The cmp_sharing default grid: homog/hetero x cores 1/2/4 x
     * banks 1/4, shared L2I, FCFS arbitration. */
    static std::vector<sim::CmpJob>
    makeJobs(const std::vector<trace::TraceHandle> &hetero)
    {
        const std::vector<trace::TraceHandle> homog = {hetero.front()};
        const std::pair<const char *, const std::vector<trace::TraceHandle> *>
                mixes[] = {{"homog", &homog}, {"hetero", &hetero}};
        std::vector<sim::CmpJob> jobs;
        for (const auto &[tag, pool] : mixes)
            for (const unsigned cores : {1u, 2u, 4u})
                for (const unsigned banks : {1u, 4u}) {
                    sim::CmpJob job;
                    job.name = std::string("cmp-") + tag + "-c" +
                               std::to_string(cores) + "-b" +
                               std::to_string(banks);
                    job.cfg = sim::configBtb2();
                    job.cfg.cmp.cores = cores;
                    job.cfg.cmp.btb2Banks = banks;
                    job.cfg.cmp.arbPolicy = preload::ArbPolicy::kFcfs;
                    job.cfg.cmp.sharedL2i = true;
                    for (unsigned i = 0; i < cores; ++i)
                        job.traces.push_back((*pool)[i % pool->size()]);
                    jobs.push_back(std::move(job));
                }
        return jobs;
    }

    static void
    addOp(const sim::CmpJob &job, const sim::CmpResult &r,
          std::string error, Rep &rep)
    {
        for (std::size_t i = 0; error.empty() && i < job.traces.size(); ++i)
            error = i < r.core.size()
                            ? checkResult(r.core[i], job.traces[i]->size())
                            : "missing core result";
        for (const SimResult &c : r.core)
            rep.simInsts += static_cast<double>(c.instructions);
        rep.ops.push_back({job.name, Digest().add(r).value(), error});
    }

    const Context &ctx;
    std::vector<workload::SuiteSpec> specs;
};

Rep
Cmp4Shared::runTraced(SpanLog &log)
{
    Rep rep;
    rep.traced = true;
    const auto cache0 = workload::traceCacheStats();
    std::vector<sim::CmpJob> jobs;
    std::vector<sim::CmpResult> results;
    std::vector<std::string> errors;
    std::vector<std::vector<std::uint64_t>> searches;
    std::vector<double> queue_s, step_s, bytes;
    std::size_t records = 0;
    {
        const auto t0 = Clock::now();
        Scope root(log, "bench.rep");
        {
            Scope s(log, "bench.setup");
            jobs = makeJobs(loadTraces(specs, ctx.jobs, &log, "trace.load",
                                       s.id()));
        }
        rep.setupS = secondsSince(t0);
        const std::size_t nj = jobs.size();
        results.resize(nj);
        errors.resize(nj);
        searches.resize(nj);
        queue_s.assign(nj, 0.0);
        step_s.assign(nj, 0.0);
        bytes.assign(nj, 0.0);
        runner::JsonlSink sink(ctx.resultsJsonl);

        Scope run(log, "sim.cmp.run");
        const auto submit = Clock::now();
        runner::ParallelExecutor(ctx.jobs).run(nj, [&](std::size_t ji) {
            queue_s[ji] = secondsSince(submit);
            Scope js(log, "sim.cmp.job", run.id());
            const sim::CmpJob &job = jobs[ji];
            const unsigned n = static_cast<unsigned>(job.traces.size());
            const auto j0 = Clock::now();
            // The walk of sim::CmpRunner::run: sidecars deduplicated by
            // trace, one CmpModel, lockstep stepping, one record per
            // core (the CMP-level sharing line is not a jobRecord and
            // is left out).
            try {
                std::unordered_map<const trace::Trace *,
                                   std::unique_ptr<trace::TraceIndex>> idx;
                std::unordered_map<const trace::Trace *,
                                   std::vector<std::uint8_t>> dmaps;
                std::vector<const trace::Trace *> tps(n);
                for (unsigned i = 0; i < n; ++i) {
                    tps[i] = &*job.traces[i];
                    auto &ix = idx[tps[i]];
                    if (!ix) {
                        Scope s(log, "trace.index");
                        ix = std::make_unique<trace::TraceIndex>(*tps[i]);
                        bytes[ji] += indexBytes(*ix);
                    }
                    auto &map = dmaps[tps[i]];
                    if (job.cfg.dcacheEnabled && map.empty()) {
                        Scope s(log, "cache.dmiss_map");
                        map = cache::computeDataMissMap(*tps[i],
                                                        job.cfg.dcache);
                        bytes[ji] += static_cast<double>(map.size());
                    }
                }
                std::unique_ptr<sim::CmpModel> model;
                {
                    Scope s(log, "cpu.build");
                    model = std::make_unique<sim::CmpModel>(job.cfg);
                    for (unsigned i = 0; i < n; ++i) {
                        model->setTraceIndex(i, idx[tps[i]].get());
                        if (job.cfg.dcacheEnabled)
                            model->setDataMissMap(i, &dmaps[tps[i]]);
                    }
                    model->beginRun(tps);
                }
                for (std::size_t prev = 0;;) {
                    const std::size_t tgt =
                            std::min(prev + kCmpWindow, model->maxInsts());
                    const auto a0 = Clock::now();
                    bool done = false;
                    {
                        Scope s(log, "sim.cmp.step");
                        done = model->advance(tgt);
                    }
                    step_s[ji] += secondsSince(a0);
                    if (done)
                        break;
                    prev = tgt;
                }
                Scope s(log, "cpu.finish");
                results[ji] = model->finishRun();
                for (unsigned i = 0; i < n; ++i)
                    searches[ji].push_back(
                            model->core(i).pipeline().searchCount());
            } catch (const std::exception &e) {
                errors[ji] = e.what();
            }
            const double seconds = secondsSince(j0);

            Scope s(log, "runner.record");
            const sim::CmpResult &r = results[ji];
            for (unsigned i = 0; i < n && i < r.core.size(); ++i)
                writeRecord(sink, sim::cmpCoreConfigName(job.name, i),
                            job.cfg, *job.traces[i], r.core[i],
                            errors[ji], seconds / n, queue_s[ji]);
        });
        records = sink.linesWritten();
        rep.wallS = secondsSince(t0);
    }

    SimTotals tot;
    double grants = 0.0, conflicts = 0.0, waits = 0.0, rejects = 0.0;
    double l2i_hits = 0.0, l2i_misses = 0.0, stepped = 0.0;
    double resident = 0.0, queued = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const sim::CmpResult &r = results[j];
        addOp(jobs[j], r, errors[j], rep);
        for (std::size_t i = 0; i < r.core.size(); ++i)
            tot.add(r.core[i], i < searches[j].size() ? searches[j][i] : 0,
                    jobs[j].cfg.btb2Enabled);
        grants += static_cast<double>(r.arbGrants);
        conflicts += static_cast<double>(r.arbConflicts);
        waits += static_cast<double>(r.arbWaitCycles);
        rejects += static_cast<double>(r.arbQueueFullRejects);
        l2i_hits += static_cast<double>(r.l2iHits);
        l2i_misses += static_cast<double>(r.l2iMisses);
        stepped += step_s[j];
        resident += bytes[j];
        queued += queue_s[j];
    }
    for (const auto &t : jobs.back().traces) // the hetero pool: all four
        resident += traceBytes(*t);

    Metrics &m = rep.metrics;
    spanMetrics(log.spansOf(log.currentRun()), "sim.cmp.run", "sim.cmp.job",
                std::min<unsigned>(ctx.jobs, jobs.size()), m);
    tot.emit(m, stepped, tot.cycles);
    m["sim.cmp.step_s"] = selfSeconds(log.spansOf(log.currentRun()))
            ["sim.cmp.step"];
    m["sim.cmp.conflict_frac"] = ratio(conflicts, grants);
    m["sim.cmp.wait_cycles_per_grant"] = ratio(waits, grants);
    m["sim.cmp.queue_full_rejects"] = rejects;
    m["cache.l2i_miss_frac"] = ratio(l2i_misses, l2i_hits + l2i_misses);
    cacheMetrics(cache0, m);
    m["trace.resident_mb"] = resident / (1024.0 * 1024.0);
    m["runner.queue_s"] = queued;
    m["runner.records"] = static_cast<double>(records);
    return rep;
}

// ---- sampled_long -----------------------------------------------------

/** bench/sampled_sim's trace-relative geometry: 32 fast-mode intervals,
 * 5% detailed re-warm, 10% measured. */
sample::SampleParams
sampledParams(std::size_t trace_len)
{
    sample::SampleParams p;
    p.mode = sample::SampleMode::kFast;
    p.intervalInsts = std::max<std::uint64_t>(
            trace_len / kSampledIntervals, 1'000);
    p.warmupInsts = p.intervalInsts / 20;
    p.measureInsts = p.intervalInsts / 10;
    return p;
}

class SampledLong final : public Workload
{
  public:
    explicit SampledLong(const Context &c)
        : ctx(c), spec(suiteNamed(c.suites, kSampledSuite))
    {}

    /** The trace is generated in memory by every repetition. */
    Metrics
    prime(SpanLog &) override
    {
        ::unsetenv("ZBP_TRACE_CACHE");
        return {};
    }

    Rep
    runUntraced() override
    {
        Rep rep;
        Clock::time_point t0;
        const trace::Trace t = timedSetUp(
                [&] { return workload::makeSuiteTrace(spec, kSampledScale); },
                rep, t0);
        const auto prm = sampledParams(t.size());
        sample::SampleRunner sr(prm, ctx.jobs);
        const auto rpt = sr.run(kConfig, sim::configBtb2(), t);
        rep.wallS = secondsSince(t0);
        addOp(t, prm, rpt.stitched, rpt.intervals, rpt.coverage,
              rpt.warmupInstructions, rep);
        return rep;
    }

    Rep runTraced(SpanLog &log) override;

    /** The exact monolithic reference of this seed's trace: what the
     * sampled CPI is judged against. */
    Rep
    finish(SpanLog &log) override
    {
        Rep rep;
        Scope s(log, "sample.exact_reference");
        const trace::Trace t = workload::makeSuiteTrace(spec, kSampledScale);
        const trace::TraceIndex tidx(t);
        cpu::CoreModel mono(sim::configBtb2());
        mono.setTraceIndex(&tidx);
        Op op{"exact/" + t.name(), 0, ""};
        try {
            const SimResult exact = mono.run(t);
            op.digest = Digest().add(exact).value();
            op.error = checkResult(exact, t.size());
            rep.metrics["sample.exact_cpi"] = exact.cpi;
        } catch (const std::exception &e) {
            op.error = e.what();
        }
        rep.ops.push_back(std::move(op));
        return rep;
    }

  private:
    static constexpr const char *kConfig = "sampled-fast";

    static void
    addOp(const trace::Trace &t, const sample::SampleParams &prm,
          const SimResult &stitched, std::size_t intervals,
          double coverage, std::size_t warm_insts, Rep &rep)
    {
        const auto plan = sample::planIntervals(t.size(), prm);
        std::uint64_t detailed = 0;
        for (const auto &iv : plan)
            detailed += iv.measureEnd - iv.snapshotAt;
        Op op;
        op.id = std::string(kConfig) + "/" + t.name();
        op.digest = Digest()
                            .add(stitched)
                            .add(std::uint64_t{intervals})
                            .add(coverage)
                            .value();
        // Windows end at decode boundaries, so a fast stitch measures
        // about, not exactly, the planned instruction count, and counts
        // resolves of branches decoded before its window; every other
        // run invariant holds.
        SimResult books = stitched;
        books.resolves = books.branches;
        op.error = stitched.instructions == 0
                           ? "empty stitch"
                           : cpu::simInvariantError(books);
        if (op.error.empty() && intervals != plan.size())
            op.error = "stitched " + std::to_string(intervals) + " of " +
                       std::to_string(plan.size()) + " intervals";
        rep.simInsts = static_cast<double>(warm_insts + detailed);
        rep.metrics["sample.cpi"] = stitched.cpi;
        rep.ops.push_back(std::move(op));
    }

    const Context &ctx;
    workload::SuiteSpec spec;
};

Rep
SampledLong::runTraced(SpanLog &log)
{
    Rep rep;
    rep.traced = true;
    const auto cfg = sim::configBtb2();
    std::optional<trace::Trace> tr;
    sample::SampleParams prm;
    std::vector<sample::IntervalPlan> plan;
    std::vector<SimResult> deltas;
    std::vector<double> queue_s, advance_s, cycles_s;
    std::vector<std::uint64_t> searches;
    double snapshot_bytes = 0.0, idx_bytes = 0.0;
    std::size_t warm_insts = 0;
    {
        const auto t0 = Clock::now();
        Scope root(log, "bench.rep");
        {
            Scope s(log, "bench.setup");
            Scope g(log, "workload.generate");
            tr.emplace(workload::makeSuiteTrace(spec, kSampledScale));
        }
        rep.setupS = secondsSince(t0);
        const trace::Trace &t = *tr;

        // The walk of sample::SampleRunner::run: index, functional
        // warm-up fanning out in-memory snapshots, parallel detailed
        // intervals, one record per interval, stitch.
        Scope run(log, "sample.run");
        prm = sampledParams(t.size());
        plan = sample::planIntervals(t.size(), prm);
        std::optional<trace::TraceIndex> tidx;
        {
            Scope s(log, "trace.index");
            tidx.emplace(t);
        }
        idx_bytes = indexBytes(*tidx);
        std::vector<ckpt::SnapshotBuffer> snaps(plan.size());
        {
            Scope w(log, "sample.warmup");
            std::optional<cpu::CoreModel> warm;
            {
                Scope s(log, "cpu.build");
                warm.emplace(cfg);
                warm->setTraceIndex(&*tidx);
                warm->beginRun(t);
            }
            for (std::size_t i = 0; i < plan.size(); ++i) {
                if (plan[i].snapshotAt == 0)
                    continue; // interval 0 starts from beginRun state
                {
                    Scope s(log, "cpu.advance_functional");
                    warm->advanceFunctional(plan[i].snapshotAt);
                }
                Scope s(log, "ckpt.save");
                ckpt::Writer wr;
                warm->saveState(wr);
                wr.finish();
                snaps[i] = ckpt::SnapshotBuffer::capture(wr);
                snapshot_bytes += static_cast<double>(snaps[i].sizeBytes());
            }
            warm_insts = warm->decodedInstructions();
        }

        const std::size_t np = plan.size();
        deltas.resize(np);
        queue_s.assign(np, 0.0);
        advance_s.assign(np, 0.0);
        cycles_s.assign(np, 0.0);
        searches.assign(np, 0);
        runner::JsonlSink sink(ctx.resultsJsonl);
        Scope ivs(log, "sample.intervals");
        const auto submit = Clock::now();
        const auto failures = runner::ParallelExecutor(ctx.jobs).run(
                np, [&](std::size_t i) {
            queue_s[i] = secondsSince(submit);
            Scope iv_span(log, "sample.interval", ivs.id());
            const sample::IntervalPlan &iv = plan[i];
            const auto j0 = Clock::now();
            std::optional<cpu::CoreModel> mo;
            {
                Scope s(log, "cpu.build");
                mo.emplace(cfg);
                mo->setTraceIndex(&*tidx);
                mo->beginRun(t);
            }
            cpu::CoreModel &m = *mo;
            if (iv.snapshotAt > 0) {
                Scope s(log, "ckpt.restore");
                ckpt::Reader r = snaps[i].reader();
                m.restoreState(r);
                r.finish();
            }
            const SimResult restored = m.interimResult();
            const auto a0 = Clock::now();
            {
                Scope s(log, "cpu.advance");
                m.advance(iv.measureBegin); // detailed re-warm
            }
            const SimResult start = m.interimResult();
            const std::uint64_t s0 = m.pipeline().searchCount();
            {
                Scope s(log, "cpu.advance");
                m.advance(iv.measureEnd);
            }
            advance_s[i] = secondsSince(a0);
            const SimResult end = m.interimResult();
            deltas[i] = subtract(end, start);
            searches[i] = m.pipeline().searchCount() - s0;
            cycles_s[i] = static_cast<double>(end.cycles - restored.cycles);

            Scope s(log, "runner.record");
            writeRecord(sink,
                        sample::SampleRunner::intervalConfigName(kConfig,
                                                                 iv.index),
                        cfg, t, deltas[i], "", secondsSince(j0),
                        queue_s[i]);
        });
        if (!failures.empty())
            rep.ops.push_back({std::string(kConfig) + "/" + t.name(), 0,
                               "interval " +
                                       std::to_string(failures.front().index) +
                                       " failed: " + failures.front().message});
        rep.wallS = secondsSince(t0);
    }

    const trace::Trace &t = *tr;
    SimResult stitched;
    stitched.traceName = t.name();
    SimTotals tot;
    double adv = 0.0, cyc = 0.0, queued = 0.0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        accumulate(stitched, deltas[i]);
        tot.add(deltas[i], searches[i], cfg.btb2Enabled);
        adv += advance_s[i];
        cyc += cycles_s[i];
        queued += queue_s[i];
    }
    stitched.cpi = ratio(static_cast<double>(stitched.cycles),
                         static_cast<double>(stitched.instructions));
    const double coverage = ratio(static_cast<double>(stitched.instructions),
                                  static_cast<double>(t.size()));
    if (rep.ops.empty())
        addOp(t, prm, stitched, plan.size(), coverage, warm_insts, rep);

    Metrics &m = rep.metrics;
    const auto spans = log.spansOf(log.currentRun());
    spanMetrics(spans, "sample.intervals", "sample.interval",
                std::min<unsigned>(ctx.jobs, plan.size()), m);
    tot.emit(m, adv, cyc);
    auto self = selfSeconds(spans);
    auto total = totalSeconds(spans);
    m["workload.generate_insts_per_s"] =
            ratio(static_cast<double>(t.size()), self["workload.generate"]);
    m["cpu.functional_ns_per_inst"] =
            1e9 * ratio(self["cpu.advance_functional"],
                        static_cast<double>(warm_insts));
    m["sample.warmup_insts_per_s"] =
            ratio(static_cast<double>(warm_insts), total["sample.warmup"]);
    m["sample.interval_insts_per_s"] =
            ratio(static_cast<double>(stitched.instructions),
                  total["sample.interval"]);
    m["sample.coverage"] = coverage;
    m["ckpt.snapshot_mb"] = snapshot_bytes / (1024.0 * 1024.0);
    m["trace.resident_mb"] = (traceBytes(t) + idx_bytes) / (1024.0 * 1024.0);
    m["runner.queue_s"] = queued;
    m["runner.records"] = static_cast<double>(plan.size());
    return rep;
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Context &ctx)
{
    if (name == "fig2_full")
        return std::make_unique<Fig2Full>(ctx);
    if (name == "cmp4_shared")
        return std::make_unique<Cmp4Shared>(ctx);
    if (name == "sampled_long")
        return std::make_unique<SampledLong>(ctx);
    return nullptr;
}

std::vector<workload::SuiteSpec>
seededSuites(std::uint64_t seed)
{
    std::vector<workload::SuiteSpec> v = workload::paperSuites();
    for (auto &s : v) {
        s.build.seed += seed * 0x9E3779B97F4A7C15ull;
        s.gen.seed += seed * 0xC2B2AE3D27D4EB4Full;
    }
    return v;
}

} // namespace perfbench
