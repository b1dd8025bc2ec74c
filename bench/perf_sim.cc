/**
 * @file
 * google-benchmark microbenchmarks of the simulator, layer by layer:
 * the allocation-free structure primitives (BTB row search/read/install,
 * first-level search with candidate merge, SOT tracking/steering, PHT
 * lookup), trace generation and indexing, end-to-end CoreModel::run
 * throughput with stats-text collection on and off, observability
 * overhead, gang-fused sweeps and CMP lockstep stepping.
 *
 * The judged end-to-end numbers come from perfbench/ (BENCHMARK.json);
 * this binary is for zooming into individual layers when those move.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "zbp/core/hierarchy.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/obs/interval_sampler.hh"
#include "zbp/preload/sector_order_table.hh"
#include "zbp/sim/cmp/cmp_model.hh"
#include "zbp/sim/configs.hh"
#include "zbp/trace/trace_index.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"

namespace
{

using namespace zbp;

// --- structure primitives -------------------------------------------

void
BM_SearchFromDense(benchmark::State &state)
{
    // Rows hold multiple same-row branches, so the offset-ordered
    // insertion path is exercised, not just the empty-row fast path.
    btb::SetAssocBtb t("btb1", btb::btb1Config());
    for (Addr ia = 0; ia < 4096 * 8; ia += 10)
        t.install(btb::BtbEntry::freshTaken(ia, ia + 64));
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.searchFrom(a));
        a = (a + 14) & 0xFFFF;
    }
}
BENCHMARK(BM_SearchFromDense);

void
BM_SearchFromEmpty(benchmark::State &state)
{
    // The fruitless-search case dominates sequential code regions.
    btb::SetAssocBtb t("btb1", btb::btb1Config());
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.searchFrom(a));
        a = (a + 32) & 0xFFFF;
    }
}
BENCHMARK(BM_SearchFromEmpty);

void
BM_ReadRowDense(benchmark::State &state)
{
    btb::SetAssocBtb t("btb2", btb::btb2Config());
    for (Addr ia = 0; ia < 4096 * 32; ia += 12)
        t.install(btb::BtbEntry::freshTaken(ia, ia + 64));
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.readRow(a));
        a = (a + 32) & 0x1FFFF;
    }
}
BENCHMARK(BM_ReadRowDense);

void
BM_Lookup(benchmark::State &state)
{
    btb::SetAssocBtb t("btb1", btb::btb1Config());
    for (Addr ia = 0; ia < 4096 * 8; ia += 24)
        t.install(btb::BtbEntry::freshTaken(ia, ia + 64));
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.lookup(a));
        a = (a + 24) & 0xFFFF;
    }
}
BENCHMARK(BM_Lookup);

void
BM_FirstLevelSearchMerged(benchmark::State &state)
{
    // Both levels populated so the BTB1 + BTBP candidate merge and
    // cross-level dedup run, not just one table's hits.
    core::BranchPredictorHierarchy bp{core::MachineParams{}};
    for (Addr ia = 0; ia < 4096 * 8; ia += 10) {
        bp.btb1().install(btb::BtbEntry::freshTaken(ia, ia + 64));
        bp.btbp().install(btb::BtbEntry::freshTaken(ia + 4, ia + 96));
    }
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.searchFirstLevel(a));
        a = (a + 14) & 0xFFFF;
    }
}
BENCHMARK(BM_FirstLevelSearchMerged);

void
BM_Btb1Install(benchmark::State &state)
{
    btb::SetAssocBtb t("btb1", btb::btb1Config());
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
                t.install(btb::BtbEntry::freshTaken(a, a + 8)));
        a += 30;
    }
}
BENCHMARK(BM_Btb1Install);

void
BM_FirstLevelSearch(benchmark::State &state)
{
    // BTB1 only: the single-table path without the BTBP merge.
    core::BranchPredictorHierarchy bp{core::MachineParams{}};
    for (Addr ia = 0; ia < 4096 * 8; ia += 24)
        bp.btb1().install(btb::BtbEntry::freshTaken(ia, ia + 64));
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.searchFirstLevel(a));
        a = (a + 32) & 0xFFFF;
    }
}
BENCHMARK(BM_FirstLevelSearch);

void
BM_SotInstructionCompleted(benchmark::State &state)
{
    preload::SectorOrderTable sot{preload::SotParams{}};
    Addr a = 0;
    for (auto _ : state) {
        sot.instructionCompleted(a);
        a += 97; // wanders across sectors and blocks
    }
}
BENCHMARK(BM_SotInstructionCompleted);

void
BM_SotOrder(benchmark::State &state)
{
    preload::SectorOrderTable sot{preload::SotParams{}};
    for (Addr a = 0; a < 1 << 20; a += 300)
        sot.instructionCompleted(a);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sot.order(a));
        a = (a + 4096) & 0xFFFFF;
    }
}
BENCHMARK(BM_SotOrder);

void
BM_PhtLookup(benchmark::State &state)
{
    dir::Pht pht;
    dir::HistoryState h;
    for (int i = 0; i < 4000; ++i) {
        pht.update(Addr{0x1000} + i * 6, h, i % 2 != 0, true);
        h.push(Addr{0x1000} + i * 6, i % 2 != 0);
    }
    Addr a = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pht.lookup(a, h));
        a += 6;
    }
}
BENCHMARK(BM_PhtLookup);

void
BM_TraceGeneration(benchmark::State &state)
{
    workload::BuildParams bp;
    bp.numFunctions = 500;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.length = 100'000;
    for (auto _ : state) {
        gp.seed += 1;
        benchmark::DoNotOptimize(
                workload::generateTrace(prog, gp, "bm"));
    }
    state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()) * 100'000);
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

// --- end-to-end simulation ------------------------------------------

trace::Trace
benchTrace()
{
    workload::BuildParams bp;
    bp.seed = 21;
    bp.numFunctions = 400;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.seed = 22;
    gp.length = 60'000;
    return workload::generateTrace(prog, gp, "perf-sim");
}

void
runEndToEnd(benchmark::State &state, core::MachineParams cfg,
            bool stats_text)
{
    cfg.collectStatsText = stats_text;
    const auto trace = benchTrace();
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        cpu::CoreModel model(cfg);
        const auto r = model.run(trace);
        cycles += r.cycles;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()) * 60'000);
    state.counters["cycles/s"] = benchmark::Counter(
            static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void
BM_RunBtb2(benchmark::State &state)
{
    runEndToEnd(state, sim::configBtb2(), false);
}
BENCHMARK(BM_RunBtb2)->Unit(benchmark::kMillisecond);

void
BM_RunNoBtb2(benchmark::State &state)
{
    runEndToEnd(state, sim::configNoBtb2(), false);
}
BENCHMARK(BM_RunNoBtb2)->Unit(benchmark::kMillisecond);

void
BM_RunBtb2StatsText(benchmark::State &state)
{
    runEndToEnd(state, sim::configBtb2(), true);
}
BENCHMARK(BM_RunBtb2StatsText)->Unit(benchmark::kMillisecond);

// --- observability overhead -----------------------------------------
//
// The obs contract: with ZBP_OBS_* unset, every hook is a null-pointer
// test, so BM_ObsOverhead must sit within 2% of BM_RunBtb2 (same
// machine, same trace; compare the two when reviewing a perf run).
// The Sampling variant prices the enabled path (1k-inst intervals to a
// discarded sidecar) — it is allowed to cost more, it just must not
// perturb counters (tests pin that bit-identity).

void
BM_ObsOverhead(benchmark::State &state)
{
    // Hooks present, disabled: CoreModel's smp/tracer stay null.
    runEndToEnd(state, sim::configBtb2(), false);
}
BENCHMARK(BM_ObsOverhead)->Unit(benchmark::kMillisecond);

void
BM_ObsOverheadSampling(benchmark::State &state)
{
    const auto cfg = sim::configBtb2();
    const auto trace = benchTrace();
    const std::string path = "/tmp/zbp_bm_obs_intervals.jsonl";
    obs::IntervalWriter writer(path);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        cpu::CoreModel model(cfg);
        model.attachObs(&writer, 1000, "btb2");
        const auto r = model.run(trace);
        cycles += r.cycles;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()) * 60'000);
    state.counters["cycles/s"] = benchmark::Counter(
            static_cast<double>(cycles), benchmark::Counter::kIsRate);
    std::remove(path.c_str());
}
BENCHMARK(BM_ObsOverheadSampling)->Unit(benchmark::kMillisecond);

// --- sweep fusion ---------------------------------------------------

std::vector<core::MachineParams>
sweepConfigs()
{
    std::vector<core::MachineParams> cfgs = {
        sim::configNoBtb2(), sim::configBtb2(), sim::configLargeBtb1()};
    for (auto &c : cfgs)
        c.collectStatsText = false;
    return cfgs;
}

void
BM_TraceIndexBuild(benchmark::State &state)
{
    const auto trace = benchTrace();
    for (auto _ : state)
        benchmark::DoNotOptimize(trace::TraceIndex(trace));
    state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_TraceIndexBuild)->Unit(benchmark::kMillisecond);

void
BM_SweepSerial3Configs(benchmark::State &state)
{
    // Job-per-config reference: each config streams the whole trace
    // before the next starts (N full passes over the trace bytes).
    const auto cfgs = sweepConfigs();
    const auto trace = benchTrace();
    for (auto _ : state) {
        for (const auto &cfg : cfgs) {
            cpu::CoreModel model(cfg);
            benchmark::DoNotOptimize(model.run(trace));
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
            state.iterations() * cfgs.size() * trace.size()));
}
BENCHMARK(BM_SweepSerial3Configs)->Unit(benchmark::kMillisecond);

void
BM_SweepFused3Configs(benchmark::State &state)
{
    // Gang-chunked: all configs advance through the same trace chunk
    // before the gang moves on, sharing the trace bytes and one
    // TraceIndex sidecar (one logical pass over the trace stream).
    const auto cfgs = sweepConfigs();
    const auto trace = benchTrace();
    const trace::TraceIndex index(trace);
    constexpr std::size_t kChunk = 65536;
    for (auto _ : state) {
        std::vector<std::unique_ptr<cpu::CoreModel>> models;
        for (const auto &cfg : cfgs) {
            models.push_back(std::make_unique<cpu::CoreModel>(cfg));
            models.back()->setTraceIndex(&index);
            models.back()->beginRun(trace);
        }
        for (std::size_t target = kChunk;; target += kChunk) {
            bool all_done = true;
            for (auto &m : models)
                all_done &= m->advance(target);
            if (all_done)
                break;
        }
        for (auto &m : models)
            benchmark::DoNotOptimize(m->finishRun());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
            state.iterations() * cfgs.size() * trace.size()));
}
BENCHMARK(BM_SweepFused3Configs)->Unit(benchmark::kMillisecond);

// --- CMP lockstep stepping ------------------------------------------

void
BM_CmpStep(benchmark::State &state)
{
    // N cores in lockstep against one shared banked BTB2 + shared L2I,
    // every core running the same trace (worst-case arbiter pressure:
    // identical transfer schedules collide on the same banks).  Items
    // processed = decoded instructions across all cores, so the
    // items/s rate is directly comparable to BM_RunBtb2 and exposes
    // the CMP interleaving overhead per core added.
    const auto n = static_cast<unsigned>(state.range(0));
    core::MachineParams cfg = sim::configBtb2();
    cfg.collectStatsText = false;
    cfg.cmp.cores = n;
    cfg.cmp.btb2Banks = 4;
    cfg.cmp.sharedL2i = true;
    const auto trace = benchTrace();
    const trace::TraceIndex index(trace);
    const std::vector<const trace::Trace *> traces(n, &trace);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        sim::CmpModel model(cfg);
        for (unsigned i = 0; i < n; ++i)
            model.setTraceIndex(i, &index);
        const auto r = model.run(traces);
        for (const auto &c : r.core)
            cycles += c.cycles;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
            state.iterations() * n * trace.size()));
    state.counters["cycles/s"] = benchmark::Counter(
            static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CmpStep)->Arg(2)->Arg(4)->Arg(8)->Unit(
        benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
