/**
 * @file
 * Tests for the core timing model on small hand-crafted traces, plus
 * behavioural invariants on generated ones.
 */

#include <gtest/gtest.h>

#include "zbp/cpu/core_model.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"

namespace zbp::cpu
{
namespace
{

using trace::InstKind;
using trace::Instruction;
using trace::Trace;

Instruction
plain(Addr ia, std::uint8_t len = 4)
{
    Instruction i;
    i.ia = ia;
    i.length = len;
    return i;
}

Instruction
branch(Addr ia, InstKind k, bool taken, Addr target,
       std::uint8_t len = 4)
{
    Instruction i;
    i.ia = ia;
    i.length = len;
    i.kind = k;
    i.taken = taken;
    if (taken)
        i.setTarget(target);
    return i;
}

core::MachineParams
noStallParams(bool btb2 = true)
{
    core::MachineParams p;
    p.btb2Enabled = btb2;
    p.cpu.dataStallProb = 0.0; // deterministic micro-traces
    return p;
}

Trace
sequentialTrace(std::size_t n)
{
    Trace t("seq");
    for (std::size_t i = 0; i < n; ++i)
        t.push(plain(0x1000 + 4 * i));
    return t;
}

TEST(CoreModel, SequentialCodeDecodesAtFullWidth)
{
    // No branches, everything I-cache-resident after the first lines:
    // CPI approaches 1 / decodeWidth.
    CoreModel m(noStallParams());
    const auto r = m.run(sequentialTrace(3000));
    EXPECT_EQ(r.instructions, 3000u);
    EXPECT_LT(r.cpi, 0.55);
    EXPECT_EQ(r.branches, 0u);
    EXPECT_EQ(r.mispredictDir + r.mispredictTarget, 0u);
}

TEST(CoreModel, EmptyTraceThrows)
{
    CoreModel m(noStallParams());
    EXPECT_THROW((void)m.run(Trace{}), std::invalid_argument);
}

TEST(CoreModel, FirstSurpriseIsCompulsoryAndInstalls)
{
    Trace t("one-branch");
    for (int i = 0; i < 10; ++i)
        t.push(plain(0x1000 + 4 * i));
    t.push(branch(0x1028, InstKind::kUncondBranch, true, 0x2000));
    for (int i = 0; i < 10; ++i)
        t.push(plain(0x2000 + 4 * i));

    CoreModel m(noStallParams());
    const auto r = m.run(t);
    EXPECT_EQ(r.branches, 1u);
    EXPECT_EQ(r.surpriseCompulsory, 1u);
    EXPECT_EQ(r.correct, 0u);
    // The taken surprise was installed into the hierarchy.
    EXPECT_TRUE(m.hierarchy().btbp().lookup(0x1028).has_value());
}

TEST(CoreModel, SecondVisitIsPredicted)
{
    // Loop the same block twice: the second traversal of the branch
    // must be dynamically predicted (content was installed and the
    // search finds it in the BTBP).
    Trace t("twice");
    for (int lap = 0; lap < 6; ++lap) {
        for (int i = 0; i < 10; ++i)
            t.push(plain(0x1000 + 4 * i));
        t.push(branch(0x1028, InstKind::kUncondBranch, true, 0x1000));
    }
    for (int i = 0; i < 4; ++i)
        t.push(plain(0x1000 + 4 * i));
    t.push(branch(0x1010, InstKind::kUncondBranch, true, 0x4000));
    t.push(plain(0x4000));

    CoreModel m(noStallParams());
    const auto r = m.run(t);
    EXPECT_EQ(r.surpriseCompulsory, 2u); // 0x1028 and 0x1010
    EXPECT_GE(r.correct, 4u);            // laps 2..6 of 0x1028
}

TEST(CoreModel, NotTakenColdConditionalIsBenign)
{
    Trace t("benign");
    for (int i = 0; i < 8; ++i)
        t.push(plain(0x1000 + 4 * i));
    t.push(branch(0x1020, InstKind::kCondBranch, false, 0));
    for (int i = 0; i < 8; ++i)
        t.push(plain(0x1024 + 4 * i));

    CoreModel m(noStallParams());
    const auto r = m.run(t);
    EXPECT_EQ(r.surpriseBenign, 1u);
    EXPECT_EQ(r.badOutcomes(), 0.0);
}

TEST(CoreModel, SurprisePenaltiesCostCycles)
{
    // The same instruction count with a surprise-taken branch must take
    // longer than pure sequential code.
    Trace seq = sequentialTrace(60);

    Trace br("br");
    for (int i = 0; i < 30; ++i)
        br.push(plain(0x1000 + 4 * i));
    br.push(branch(0x1078, InstKind::kIndirect, true, 0x3000));
    for (int i = 0; i < 29; ++i)
        br.push(plain(0x3000 + 4 * i));

    CoreModel m1(noStallParams());
    CoreModel m2(noStallParams());
    const auto r_seq = m1.run(seq);
    const auto r_br = m2.run(br);
    EXPECT_GT(r_br.cycles, r_seq.cycles + 5);
}

TEST(CoreModel, MispredictCostsMoreThanCorrect)
{
    // Train a conditional one way, then violate it.
    auto make = [](bool final_taken) {
        Trace t("t");
        for (int lap = 0; lap < 8; ++lap) {
            for (int i = 0; i < 6; ++i)
                t.push(plain(0x1000 + 4 * i));
            t.push(branch(0x1018, InstKind::kCondBranch, true, 0x1000));
        }
        for (int i = 0; i < 6; ++i)
            t.push(plain(0x1000 + 4 * i));
        if (final_taken) {
            t.push(branch(0x1018, InstKind::kCondBranch, true, 0x1000));
            for (int i = 0; i < 12; ++i)
                t.push(plain(0x1000 + 4 * i));
        } else {
            t.push(branch(0x1018, InstKind::kCondBranch, false, 0));
            for (int i = 0; i < 12; ++i)
                t.push(plain(0x101C + 4 * i));
        }
        return t;
    };

    CoreModel m1(noStallParams());
    CoreModel m2(noStallParams());
    const auto good = m1.run(make(true));
    const auto bad = m2.run(make(false));
    EXPECT_GE(bad.mispredictDir, 1u);
    EXPECT_GT(bad.cycles, good.cycles);
}

TEST(CoreModel, ColdICacheMissesAreCounted)
{
    CoreModel m(noStallParams());
    const auto r = m.run(sequentialTrace(600));
    // 600 insts x 4 B = 2400 B = at least 9 cold 256 B lines.
    EXPECT_GE(r.icacheMisses, 9u);
}

TEST(CoreModel, DataStallsRaiseCpi)
{
    core::MachineParams with = noStallParams();
    with.cpu.dataStallProb = 0.10;
    CoreModel m1(noStallParams());
    CoreModel m2(with);
    const auto fast = m1.run(sequentialTrace(4000));
    const auto slow = m2.run(sequentialTrace(4000));
    EXPECT_GT(slow.cpi, fast.cpi + 0.2);
}

TEST(CoreModel, DeterministicAcrossRuns)
{
    workload::BuildParams bp;
    bp.seed = 3;
    bp.numFunctions = 50;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.seed = 4;
    gp.length = 20'000;
    const auto t = workload::generateTrace(prog, gp, "d");

    CoreModel m1(sim::configBtb2());
    CoreModel m2(sim::configBtb2());
    const auto a = m1.run(t);
    const auto b = m2.run(t);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.btb2Transfers, b.btb2Transfers);
}

TEST(CoreModel, BranchAccountingMatchesTrace)
{
    workload::BuildParams bp;
    bp.seed = 5;
    bp.numFunctions = 40;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.seed = 6;
    gp.length = 15'000;
    const auto t = workload::generateTrace(prog, gp, "d");

    std::uint64_t branches = 0, taken = 0;
    for (const auto &i : t) {
        branches += i.branch();
        taken += i.branch() && i.taken;
    }

    CoreModel m(sim::configBtb2());
    const auto r = m.run(t);
    EXPECT_EQ(r.branches, branches);
    EXPECT_EQ(r.takenBranches, taken);
    // Every branch got exactly one outcome.
    EXPECT_EQ(r.correct + r.mispredictDir + r.mispredictTarget +
              r.surpriseCompulsory + r.surpriseLatency +
              r.surpriseCapacity + r.surpriseBenign,
              branches);
}

TEST(CoreModel, NoPhantomsWithFullTags)
{
    workload::BuildParams bp;
    bp.seed = 7;
    bp.numFunctions = 60;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.seed = 8;
    gp.length = 30'000;
    const auto t = workload::generateTrace(prog, gp, "d");
    CoreModel m(sim::configBtb2());
    EXPECT_EQ(m.run(t).phantoms, 0u);
}

TEST(CoreModel, Btb2DisabledMeansNoTransfers)
{
    workload::BuildParams bp;
    bp.seed = 9;
    bp.numFunctions = 60;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.seed = 10;
    gp.length = 20'000;
    const auto t = workload::generateTrace(prog, gp, "d");
    CoreModel m(sim::configNoBtb2());
    const auto r = m.run(t);
    EXPECT_EQ(r.btb2Transfers, 0u);
    EXPECT_EQ(r.btb2RowReads, 0u);
    EXPECT_EQ(m.engine(), nullptr);
}

TEST(CoreModel, StatsTextContainsAllGroups)
{
    CoreModel m(noStallParams());
    const auto r = m.run(sequentialTrace(100));
    for (const char *g : {"hierarchy.", "searchPipeline.", "icache.",
                          "sot.", "outcomes.", "btb2Engine."}) {
        EXPECT_NE(r.statsText.find(g), std::string::npos) << g;
    }
}

TEST(CpiImprovement, Formula)
{
    SimResult base, test;
    base.cpi = 2.0;
    test.cpi = 1.8;
    EXPECT_NEAR(cpiImprovement(base, test), 10.0, 1e-9);
    EXPECT_NEAR(cpiImprovement(base, base), 0.0, 1e-9);
    base.cpi = 0.0;
    EXPECT_DOUBLE_EQ(cpiImprovement(base, test), 0.0);
}

} // namespace
} // namespace zbp::cpu
