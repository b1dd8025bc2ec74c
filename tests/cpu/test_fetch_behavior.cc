/**
 * @file
 * Directed tests of the fetch-side benefits the paper claims for
 * asynchronous lookahead prediction: predicted-taken branches steer
 * fetch seamlessly, predictions initiate instruction fetches early
 * enough to hide L1I misses, and the D-cache/background-stall knobs
 * behave.
 */

#include <gtest/gtest.h>

#include "zbp/cpu/core_model.hh"
#include "zbp/sim/configs.hh"

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
branch(Addr ia, InstKind k, bool taken, Addr target)
{
    Instruction i;
    i.ia = ia;
    i.kind = k;
    i.taken = taken;
    if (taken)
        i.setTarget(target);
    return i;
}

core::MachineParams
quietParams()
{
    core::MachineParams p;
    p.cpu.dataStallProb = 0.0;
    return p;
}

/** A loop body at @p base jumping to a far target and back, repeated. */
Trace
pingPongTrace(unsigned laps, Addr a = 0x1000, Addr b = 0x20000)
{
    Trace t("pingpong");
    for (unsigned l = 0; l < laps; ++l) {
        for (int i = 0; i < 5; ++i)
            t.push(plain(a + 4 * i));
        t.push(branch(a + 20, InstKind::kUncondBranch, true, b));
        for (int i = 0; i < 5; ++i)
            t.push(plain(b + 4 * i));
        t.push(branch(b + 20, InstKind::kUncondBranch, true, a));
    }
    t.push(plain(a));
    return t;
}

TEST(FetchBehavior, WarmLoopRunsWithoutBadOutcomes)
{
    CoreModel m(quietParams());
    const auto r = m.run(pingPongTrace(400));
    // Two compulsory surprises (plus at most a couple of latency
    // surprises while the installs land); everything after is
    // predicted.
    EXPECT_EQ(r.surpriseCompulsory, 2u);
    EXPECT_EQ(r.surpriseCapacity, 0u);
    EXPECT_EQ(r.mispredictDir + r.mispredictTarget, 0u);
    EXPECT_GE(r.correct, r.branches - 4);
}

TEST(FetchBehavior, WarmLoopCpiApproachesDecodeWidth)
{
    CoreModel m(quietParams());
    const auto r = m.run(pingPongTrace(600));
    // 12 instructions per lap at 3/cycle = 4 cycles minimum; seamless
    // prediction-steered fetch should keep the real number close.
    EXPECT_LT(r.cpi, 0.75);
}

TEST(FetchBehavior, PredictionHidesTargetICacheLatency)
{
    // The same ping-pong flow with targets that alternate across many
    // distinct lines: when predictions steer fetch, target lines are
    // fetched ahead of decode, so warm laps beat the cold lap by far
    // more than the raw miss latency.
    CoreModel warm(quietParams());
    const auto r = warm.run(pingPongTrace(500));
    const double avg_lap_cycles =
            static_cast<double>(r.cycles) / 500.0;
    EXPECT_LT(avg_lap_cycles, 10.0); // >= 4 by decode width
}

TEST(FetchBehavior, SurpriseIndirectPaysResolvePenalty)
{
    // An indirect surprise can only redirect at resolve; the bubble is
    // decodeToResolve-class, visibly larger than a predicted lap.
    core::MachineParams p = quietParams();
    Trace t("ind");
    for (int i = 0; i < 5; ++i)
        t.push(plain(0x1000 + 4 * i));
    t.push(branch(0x1014, InstKind::kIndirect, true, 0x9000));
    for (int i = 0; i < 5; ++i)
        t.push(plain(0x9000 + 4 * i));

    CoreModel m(p);
    const auto r = m.run(t);
    EXPECT_GE(r.cycles, p.cpu.decodeToResolve + 10);
}

TEST(FetchBehavior, DcacheMissesStallAndAreCounted)
{
    core::MachineParams p = quietParams();
    Trace t("data");
    for (int i = 0; i < 200; ++i) {
        auto inst = plain(0x1000 + 4 * i);
        // Every access misses.
        inst.setDataAddr(0x100000 + static_cast<Addr>(i) * 4096);
        t.push(inst);
    }
    CoreModel with(p);
    const auto r1 = with.run(t);
    EXPECT_EQ(r1.dataAccesses, 200u);
    EXPECT_GE(r1.dcacheMisses, 190u);

    core::MachineParams off = p;
    off.dcacheEnabled = false;
    CoreModel without(off);
    const auto r2 = without.run(t);
    EXPECT_EQ(r2.dcacheMisses, 0u);
    EXPECT_GT(r1.cycles, r2.cycles + 150 * p.dcache.missLatency / 2);
}

TEST(FetchBehavior, DcacheHitsAreFree)
{
    core::MachineParams p = quietParams();
    Trace t("hotdata");
    for (int i = 0; i < 200; ++i) {
        auto inst = plain(0x1000 + 4 * i);
        inst.setDataAddr(0x100000 + (i % 8) * 8); // one line
        t.push(inst);
    }
    CoreModel m(p);
    const auto r = m.run(t);
    EXPECT_LE(r.dcacheMisses, 1u);
}

TEST(FetchBehavior, FetchBufferBackpressureBoundsRunahead)
{
    // A long I-cache-resident run with slow decode (data stalls) must
    // not let fetch run arbitrarily ahead: the model caps the fetch
    // buffer, which shows up as bounded cycles (no pathological state).
    core::MachineParams p = quietParams();
    p.cpu.fetchBufferInsts = 8;
    Trace t("bp");
    for (int i = 0; i < 2000; ++i)
        t.push(plain(0x1000 + 4 * i));
    CoreModel m(p);
    const auto r = m.run(t);
    EXPECT_LT(r.cpi, 1.0);
}

TEST(FetchBehavior, InstructionsSpanningLinesTouchBothLines)
{
    // A 6-byte instruction straddling a 256 B line boundary must charge
    // both lines' misses.
    core::MachineParams p = quietParams();
    Trace t("straddle");
    t.push(plain(0x10FA, 6)); // crosses 0x1100
    t.push(plain(0x1100, 4));
    CoreModel m(p);
    const auto r = m.run(t);
    EXPECT_EQ(r.icacheMisses, 2u);
}

} // namespace
} // namespace zbp::cpu
