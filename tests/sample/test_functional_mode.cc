/**
 * @file
 * Functional warm-up mode and the snapshot fan-out pass.
 *
 * The correctness anchor is exact mode: the fan-out pass drives the
 * detailed model, so every snapshot it captures must be byte-identical
 * to an independent detailed run stopped at the same boundary — across
 * traces and configurations, with a per-structure diff on mismatch.
 *
 * Functional mode trades per-cycle fidelity for speed (DESIGN.md §13
 * documents the approximations), so its contract is weaker and pinned
 * separately: it is deterministic (same inputs, byte-identical
 * snapshots), its snapshots restore into a detailed run that completes
 * with all run invariants intact, and it refuses the timing-coupled
 * feature it cannot honour (mid-trace mixing with detailed advance).
 */

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/sample/sample_params.hh"
#include "zbp/sample/snapshot_fanout.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"
#include "zbp/workload/suites.hh"

namespace zbp::sample
{
namespace
{

trace::Trace
makeTrace(const std::string &name)
{
    if (name == "fm-small") {
        workload::BuildParams bp;
        bp.seed = 31;
        bp.numFunctions = 60;
        const auto prog = workload::buildProgram(bp);
        workload::GenParams gp;
        gp.seed = 32;
        gp.length = 20'000;
        return workload::generateTrace(prog, gp, "fm-small");
    }
    if (name == "fm-phases") {
        workload::BuildParams bp;
        bp.seed = 41;
        bp.numFunctions = 140;
        const auto prog = workload::buildProgram(bp);
        workload::GenParams gp;
        gp.seed = 42;
        gp.length = 36'000;
        gp.phaseLength = 9'000;
        return workload::generateTrace(prog, gp, "fm-phases");
    }
    return workload::makeSuiteTrace(workload::findSuite("tpf"), 0.02);
}

/** Detailed snapshot of @p cfg over @p t stopped at @p at. */
ckpt::SnapshotBuffer
detailedSnapshotAt(const core::MachineParams &cfg, const trace::Trace &t,
                   std::size_t at)
{
    cpu::CoreModel m(cfg);
    m.beginRun(t);
    m.advance(at);
    ckpt::Writer w;
    m.saveState(w);
    w.finish();
    return ckpt::SnapshotBuffer::capture(w);
}

/** Functional snapshot of @p cfg over @p t stopped at @p at. */
ckpt::SnapshotBuffer
functionalSnapshotAt(const core::MachineParams &cfg,
                     const trace::Trace &t, std::size_t at)
{
    cpu::CoreModel m(cfg);
    m.beginRun(t);
    m.advanceFunctional(at);
    ckpt::Writer w;
    m.saveState(w);
    w.finish();
    return ckpt::SnapshotBuffer::capture(w);
}

TEST(FunctionalMode, ExactFanoutSnapshotsBitIdenticalToDetailedRuns)
{
    const struct
    {
        const char *name;
        core::MachineParams cfg;
    } configs[] = {
        {"no-btb2", sim::configNoBtb2()},
        {"btb2", sim::configBtb2()},
    };
    SampleParams p;
    p.mode = SampleMode::kExact;

    for (const char *tn : {"fm-small", "fm-phases", "tpf"}) {
        const trace::Trace t = makeTrace(tn);
        p.intervalInsts = t.size() / 4;
        for (const auto &c : configs) {
            SCOPED_TRACE(std::string(tn) + "/" + c.name);
            const auto plan = planIntervals(t.size(), p);
            ASSERT_GE(plan.size(), 4u);

            cpu::CoreModel warm(c.cfg);
            std::vector<ckpt::SnapshotBuffer> snaps;
            runWarmupFanout(warm, t, plan, SampleMode::kExact,
                            [&](std::size_t i, ckpt::SnapshotBuffer s) {
                                EXPECT_EQ(i, snaps.size());
                                snaps.push_back(std::move(s));
                            });
            ASSERT_EQ(snaps.size(), plan.size());
            EXPECT_TRUE(snaps[0].empty());

            for (std::size_t i = 1; i < plan.size(); ++i) {
                SCOPED_TRACE(plan[i].snapshotAt);
                const ckpt::SnapshotBuffer ref = detailedSnapshotAt(
                        c.cfg, t, plan[i].snapshotAt);
                if (!(snaps[i] == ref))
                    FAIL() << "fan-out snapshot at "
                           << plan[i].snapshotAt
                           << " diverges from the detailed run:\n"
                           << ckpt::diffSummary(snaps[i], ref);
            }
        }
    }
}

TEST(FunctionalMode, FunctionalAdvanceIsDeterministic)
{
    for (const auto &cfg : {sim::configNoBtb2(), sim::configBtb2()}) {
        const trace::Trace t = makeTrace("fm-small");
        const std::size_t at = t.size() / 2;
        const ckpt::SnapshotBuffer a = functionalSnapshotAt(cfg, t, at);
        const ckpt::SnapshotBuffer b = functionalSnapshotAt(cfg, t, at);
        if (!(a == b))
            FAIL() << "two functional passes diverge:\n"
                   << ckpt::diffSummary(a, b);
    }
}

TEST(FunctionalMode, FunctionalSnapshotRestoresIntoCleanDetailedRun)
{
    for (const char *tn : {"fm-small", "fm-phases"}) {
        const trace::Trace t = makeTrace(tn);
        for (const auto &cfg :
             {sim::configNoBtb2(), sim::configBtb2()}) {
            SCOPED_TRACE(tn);
            const ckpt::SnapshotBuffer snap =
                    functionalSnapshotAt(cfg, t, t.size() / 2);

            cpu::CoreModel m(cfg);
            m.beginRun(t);
            ckpt::Reader r = snap.reader();
            m.restoreState(r);
            r.finish();
            EXPECT_EQ(m.decodedInstructions(), t.size() / 2);
            m.advance(t.size());
            // finishRun() runs the invariant checker internally and
            // throws on violation: books must balance even when the
            // first half of the run was functional.
            const cpu::SimResult res = m.finishRun();
            EXPECT_EQ(res.instructions, t.size());
            EXPECT_EQ(res.resolves, res.branches);
        }
    }
}

TEST(FunctionalMode, FunctionalSegmentsCanChainAcrossTheTrace)
{
    const trace::Trace t = makeTrace("fm-small");
    cpu::CoreModel m(sim::configBtb2());
    m.beginRun(t);
    EXPECT_FALSE(m.advanceFunctional(t.size() / 3));
    EXPECT_FALSE(m.advanceFunctional((2 * t.size()) / 3));
    EXPECT_TRUE(m.advanceFunctional(t.size()));
    const cpu::SimResult res = m.interimResult();
    EXPECT_EQ(res.instructions, t.size());
    EXPECT_EQ(res.resolves, res.branches);
    EXPECT_GT(res.cycles, 0u);
}

TEST(FunctionalMode, FunctionalWarmupApproximatesDetailedWarmup)
{
    // State equivalence, measured where it matters: a detailed second
    // half behaves nearly the same whether the first half warmed the
    // machine functionally or in detail.  (Byte-identity is not the
    // contract — functional mode skips wrong-path effects, see
    // DESIGN.md §13 — but prediction behaviour must track closely.)
    for (const char *tn : {"fm-small", "fm-phases"}) {
        const trace::Trace t = makeTrace(tn);
        const core::MachineParams cfg = sim::configBtb2();
        const std::size_t half = t.size() / 2;
        SCOPED_TRACE(tn);

        const auto secondHalf = [&](bool functional_warmup) {
            cpu::CoreModel m(cfg);
            m.beginRun(t);
            if (functional_warmup)
                m.advanceFunctional(half);
            else
                m.advance(half);
            const cpu::SimResult mid = m.interimResult();
            m.advance(t.size());
            cpu::SimResult end = m.finishRun();
            end.branches -= mid.branches;
            end.correct -= mid.correct;
            end.surpriseCompulsory -= mid.surpriseCompulsory;
            return end;
        };
        const cpu::SimResult det = secondHalf(false);
        const cpu::SimResult fun = secondHalf(true);

        // The decode stream is a trace property, but the second-half
        // window start can shift by up to decodeWidth-1 instructions
        // (detailed advance() overshoots its target; functional stops
        // exactly on it), so the branch books may differ by a couple.
        ASSERT_GT(det.branches, 0u);
        ASSERT_NEAR(static_cast<double>(fun.branches),
                    static_cast<double>(det.branches), 3.0);

        // Prediction behaviour must track the detailed warm-up closely
        // (loose bound: timing-free warm-up lacks wrong-path pollution
        // and latency-induced misses, so small drift is expected).
        const double drift =
                (static_cast<double>(fun.correct) -
                 static_cast<double>(det.correct)) /
                static_cast<double>(det.branches);
        EXPECT_LT(std::abs(drift), 0.10)
                << "correct: functional " << fun.correct
                << " vs detailed " << det.correct << " of "
                << det.branches << " branches";

        // First-seen tracking is nearly timing-free (marking depends
        // on how each first occurrence was classified, which can drift
        // with BTB content), so the compulsory books agree tightly.
        const double compDrift =
                std::abs(static_cast<double>(fun.surpriseCompulsory) -
                         static_cast<double>(det.surpriseCompulsory));
        EXPECT_LE(compDrift,
                  16.0 + 0.02 * static_cast<double>(det.branches))
                << "compulsory: functional " << fun.surpriseCompulsory
                << " vs detailed " << det.surpriseCompulsory;
    }
}

} // namespace
} // namespace zbp::sample
