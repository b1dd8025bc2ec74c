/**
 * @file
 * Graceful-degradation tests: fault injection may only cost
 * performance.  An injected run must terminate, keep every
 * architectural count (instructions, branches, taken branches)
 * identical to the clean run, satisfy the simulator invariants, and
 * surface corruption purely as extra mispredicts / lost prediction
 * coverage.  Separately, an *enabled* injector with rate 0 and no
 * targeted faults must be bit-identical to a disabled one — the
 * zero-overhead-when-off guarantee in executable form.
 */

#include <gtest/gtest.h>

#include "zbp/cpu/core_model.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/suites.hh"

namespace zbp::cpu
{
namespace
{

trace::Trace
testTrace()
{
    return workload::makeSuiteTrace(workload::findSuite("tpf"), 0.02);
}

/** Fraction of branches that were not predicted correctly. */
double
badFraction(const SimResult &r)
{
    return 1.0 - static_cast<double>(r.correct) /
                     static_cast<double>(r.branches);
}

TEST(FaultDegradation, EnabledRateZeroIsBitIdenticalToDisabled)
{
    const auto t = testTrace();

    CoreModel clean(sim::configBtb2());
    const auto cleanR = clean.run(t);

    core::MachineParams prm = sim::configBtb2();
    prm.faults.enabled = true; // rate 0.0, no targeted faults
    CoreModel armed(prm);
    const auto armedR = armed.run(t);

    EXPECT_EQ(counterMismatch(cleanR, armedR), "");
    EXPECT_EQ(cleanR.statsText, armedR.statsText);
}

TEST(FaultDegradation, InjectedRunDegradesGracefully)
{
    const auto t = testTrace();

    CoreModel clean(sim::configBtb2());
    const auto cleanR = clean.run(t);

    core::MachineParams prm = sim::configBtb2();
    prm.faults.enabled = true;
    prm.faults.rate = 1e-3;
    prm.faults.seed = 99;
    CoreModel faulty(prm);
    const auto faultyR = faulty.run(t); // invariant check runs inside

    // Architectural counts are a property of the trace, not the
    // predictor state: corruption must not change them.
    EXPECT_EQ(faultyR.instructions, cleanR.instructions);
    EXPECT_EQ(faultyR.branches, cleanR.branches);
    EXPECT_EQ(faultyR.takenBranches, cleanR.takenBranches);

    // Faults did land, and they only showed up as worse prediction.
    EXPECT_GT(faultyR.faultsInjected, 0u);
    EXPECT_GE(badFraction(faultyR), badFraction(cleanR));
    EXPECT_GE(faultyR.cycles, cleanR.cycles);
}

TEST(FaultDegradation, HeavyInjectionStillTerminatesOnEveryConfig)
{
    const auto t = testTrace();
    const core::MachineParams bases[] = {
        sim::configNoBtb2(), sim::configBtb2(), sim::configLargeBtb1()};
    for (const auto &base : bases) {
        core::MachineParams prm = base;
        prm.faults.enabled = true;
        prm.faults.rate = 0.05; // brutal: 1 in 20 accesses corrupts
        prm.faults.seed = 7;
        CoreModel m(prm);
        const auto r = m.run(t);
        EXPECT_EQ(r.instructions, t.size());
        EXPECT_GT(r.faultsInjected, 0u);
    }
}

TEST(FaultDegradation, TargetedFaultsFireAndAreCounted)
{
    const auto t = testTrace();
    core::MachineParams prm = sim::configBtb2();
    prm.faults.enabled = true;
    prm.faults.targeted = {
        {1000, fault::Site::kBtb1, 0x0},
        {2000, fault::Site::kPht, 0x0},
        {3000, fault::Site::kSot, 0x0},
    };
    CoreModel m(prm);
    const auto r = m.run(t);
    EXPECT_EQ(r.faultsInjected, 3u);
}

TEST(FaultDegradation, SameSeedSameDamage)
{
    const auto t = testTrace();
    core::MachineParams prm = sim::configBtb2();
    prm.faults.enabled = true;
    prm.faults.rate = 1e-3;
    prm.faults.seed = 42;

    CoreModel a(prm);
    CoreModel b(prm);
    const auto ra = a.run(t);
    const auto rb = b.run(t);
    EXPECT_EQ(counterMismatch(ra, rb), "");
    EXPECT_EQ(ra.statsText, rb.statsText);
}

TEST(FaultDegradation, InvariantCheckerNamesTheViolation)
{
    SimResult r;
    r.traceName = "x";
    r.instructions = 100;
    r.cycles = 200;
    r.cpi = 2.0;
    r.branches = 10;
    r.resolves = 10;
    r.takenBranches = 5;
    r.correct = 9;
    r.mispredictDir = 1;
    EXPECT_TRUE(simInvariantError(r).empty());

    r.correct = 8; // outcome taxonomy no longer tiles the branches
    EXPECT_NE(simInvariantError(r).find("outcome"), std::string::npos);
    r.correct = 9;

    r.takenBranches = 11; // taken > branches
    EXPECT_FALSE(simInvariantError(r).empty());
    r.takenBranches = 5;

    r.cpi = 3.0; // inconsistent with cycles / instructions
    EXPECT_NE(simInvariantError(r).find("cpi"), std::string::npos);
}

} // namespace
} // namespace zbp::cpu
