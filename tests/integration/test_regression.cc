/**
 * @file
 * Determinism regression tests: the entire stack — program builder,
 * walker, predictor, core model — is integer-only and seeded, so a
 * fixed workload must produce bit-identical results on every platform
 * and across refactorings.  These tests pin down *self-consistency*
 * (two runs agree, components agree with each other), plus loose
 * sanity bands that survive intentional model retuning.
 */

#include <gtest/gtest.h>

#include "zbp/sim/simulator.hh"
#include "zbp/trace/trace_io.hh"
#include "zbp/trace/trace_stats.hh"

namespace zbp
{
namespace
{

trace::Trace
fixedTrace()
{
    return workload::makeSuiteTrace(workload::findSuite("informix"),
                                    0.05);
}

TEST(Regression, TraceGenerationIsReproducible)
{
    const auto a = fixedTrace();
    const auto b = fixedTrace();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << i;
}

TEST(Regression, SimulationIsReproducibleToTheCycle)
{
    const auto t = fixedTrace();
    const auto r1 = sim::runOne(sim::configBtb2(), t);
    const auto r2 = sim::runOne(sim::configBtb2(), t);
    EXPECT_EQ(cpu::counterMismatch(r1, r2), "");
    EXPECT_EQ(r1.traceName, r2.traceName);
    EXPECT_EQ(r1.statsText, r2.statsText);
}

TEST(Regression, TraceRoundTripPreservesSimulation)
{
    const auto t = fixedTrace();
    const std::string path =
            ::testing::TempDir() + "/zbp_regression.zbpt";
    trace::saveTraceFile(t, path);
    const trace::Trace back = trace::loadTraceFile(path);
    std::remove(path.c_str());

    const auto a = sim::runOne(sim::configBtb2(), t);
    const auto b = sim::runOne(sim::configBtb2(), back);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.btb2Transfers, b.btb2Transfers);
}

TEST(Regression, SanityBands)
{
    // Wide bands that only intentional model changes should move.
    const auto t = fixedTrace();
    const auto st = trace::computeStats(t);
    EXPECT_GT(st.branchFraction(), 0.10);
    EXPECT_LT(st.branchFraction(), 0.30);

    const auto r = sim::runOne(sim::configBtb2(), t);
    EXPECT_GT(r.cpi, 0.6);
    EXPECT_LT(r.cpi, 4.0);
    EXPECT_EQ(r.watchdogResets, 0u); // only aliasing pathologies need it
    EXPECT_LT(r.badFraction(), 0.5);
    EXPECT_GT(static_cast<double>(r.correct),
              0.5 * static_cast<double>(r.branches));
}

TEST(Regression, ConfigsShareTheTraceSideEffectFree)
{
    // Running one configuration must not perturb another (no hidden
    // globals): interleaved runs equal isolated runs.
    const auto t = fixedTrace();
    const auto a1 = sim::runOne(sim::configNoBtb2(), t);
    const auto b1 = sim::runOne(sim::configBtb2(), t);
    const auto a2 = sim::runOne(sim::configNoBtb2(), t);
    EXPECT_EQ(a1.cycles, a2.cycles);
    EXPECT_EQ(a1.surpriseCapacity, a2.surpriseCapacity);
    (void)b1;
}

} // namespace
} // namespace zbp
