/**
 * @file
 * Tests for MachineParams::validate(): every shipped configuration is
 * clean, broken geometry is rejected with a descriptive catchable
 * error, and CoreModel refuses to build on an invalid configuration
 * instead of asserting deep inside a table constructor.
 */

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "zbp/core/params.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/suites.hh"

namespace zbp::core
{
namespace
{

/** validate() must throw std::invalid_argument mentioning @p needle. */
void
expectRejected(const MachineParams &prm, const std::string &needle)
{
    try {
        prm.validate();
        FAIL() << "expected rejection mentioning '" << needle << "'";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bad machine configuration"),
                  std::string::npos) << msg;
        EXPECT_NE(msg.find(needle), std::string::npos) << msg;
    }
}

TEST(ParamsValidate, ShippedConfigsAreValid)
{
    EXPECT_NO_THROW(sim::configNoBtb2().validate());
    EXPECT_NO_THROW(sim::configBtb2().validate());
    EXPECT_NO_THROW(sim::configLargeBtb1().validate());
    EXPECT_NO_THROW(MachineParams{}.validate());
}

TEST(ParamsValidate, RejectsZeroBtbRows)
{
    MachineParams p;
    p.btb1.rows = 0;
    expectRejected(p, "btb1.rows");
}

TEST(ParamsValidate, RejectsNonPowerOfTwoRows)
{
    MachineParams p;
    p.btbp.rows = 3;
    expectRejected(p, "btbp.rows");
}

TEST(ParamsValidate, RejectsTooManyWays)
{
    MachineParams p;
    p.btb2.ways = btb::kMaxBtbWays + 1;
    expectRejected(p, "btb2.ways");
}

TEST(ParamsValidate, RejectsBadBtb2RowBytes)
{
    MachineParams p;
    p.btb2Enabled = true;
    p.btb2.rowBytes = 16;
    expectRejected(p, "btb2.rowBytes");
}

TEST(ParamsValidate, RejectsNonPowerOfTwoPht)
{
    MachineParams p;
    p.phtEntries = 1000;
    expectRejected(p, "phtEntries");
}

TEST(ParamsValidate, RejectsZeroTrackers)
{
    MachineParams p;
    p.engine.numTrackers = 0;
    expectRejected(p, "engine.numTrackers");
}

TEST(ParamsValidate, RejectsSotEntriesNotMultipleOfWays)
{
    MachineParams p;
    p.sot.entries = 2049;
    expectRejected(p, "sot.entries");
}

TEST(ParamsValidate, RejectsBadCacheSize)
{
    // For each cache: a size that is no multiple of lineBytes x ways,
    // and one of exactly 3 sets (cache::ICache masks its set index, so
    // the set count must be a power of two).
    const char *keys[] = {"icache.sizeBytes", "dcache.sizeBytes",
                          "cmp.l2i.sizeBytes"};
    for (int i = 0; i < 3; ++i) {
        for (const bool three_sets : {false, true}) {
            MachineParams p;
            p.cmp.sharedL2i = true;
            cache::ICacheParams *caches[] = {&p.icache, &p.dcache,
                                             &p.cmp.l2i};
            cache::ICacheParams &c = *caches[i];
            c.sizeBytes = three_sets ? c.lineBytes * c.ways * 3
                                     : c.lineBytes * c.ways + 1;
            expectRejected(p, keys[i]);
        }
    }
}

TEST(ParamsValidate, RejectsOutOfRangeStallProbability)
{
    MachineParams p;
    p.cpu.dataStallProb = 1.5;
    expectRejected(p, "cpu.dataStallProb");
}

TEST(ParamsValidate, RejectsBadCmpCoreCount)
{
    MachineParams p;
    p.cmp.cores = 0;
    expectRejected(p, "cmp.cores");

    MachineParams q;
    q.cmp.cores = 65;
    expectRejected(q, "cmp.cores");
}

TEST(ParamsValidate, RejectsNonPowerOfTwoBtb2Banks)
{
    MachineParams p;
    p.cmp.btb2Banks = 3;
    expectRejected(p, "cmp.btb2Banks");
}

TEST(ParamsValidate, RejectsMoreBanksThanBtb2Rows)
{
    MachineParams p;
    p.cmp.btb2Banks = p.btb2.rows * 2;
    expectRejected(p, "cmp.btb2Banks");
}

TEST(ParamsValidate, RejectsZeroArbQueueDepth)
{
    MachineParams p;
    p.cmp.arbQueueDepth = 0;
    expectRejected(p, "cmp.arbQueueDepth");
}

TEST(ParamsValidate, RejectsZeroCmpStepInsts)
{
    MachineParams p;
    p.cmp.stepInsts = 0;
    expectRejected(p, "cmp.stepInsts");
}

TEST(ParamsValidate, ChecksSharedL2iGeometryOnlyWhenEnabled)
{
    MachineParams p;
    p.cmp.l2i.sizeBytes = p.cmp.l2i.lineBytes * p.cmp.l2i.ways + 1;
    EXPECT_NO_THROW(p.validate()); // off: geometry not consulted

    p.cmp.sharedL2i = true;
    expectRejected(p, "cmp.l2i");
}

TEST(ParamsValidate, CmpConfigIsValidAtManyCoresAndBanks)
{
    MachineParams p;
    p.cmp.cores = 64;
    p.cmp.btb2Banks = 16;
    p.cmp.sharedL2i = true;
    EXPECT_NO_THROW(p.validate());
}

/** The value of scalar @p label in a statsText dump (-1 when absent). */
double
statValue(const std::string &stats_text, const std::string &label)
{
    std::istringstream in(stats_text);
    std::string name;
    double v = 0;
    while (in >> name >> v) {
        if (name == label)
            return v;
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return -1;
}

TEST(ParamsValidate, ZeroEntryFitIsValidAndNeverHits)
{
    // The ablation's "no FIT" machine: a 0-entry FIT learns nothing and
    // never accelerates a re-index, so 0 is a supported value.
    MachineParams no_fit = sim::configBtb2();
    no_fit.search.fitEntries = 0;
    EXPECT_NO_THROW(no_fit.validate());

    const auto t = workload::makeSuiteTrace(workload::findSuite("tpf"),
                                            0.005);
    const auto with_fit = cpu::CoreModel(sim::configBtb2()).run(t);
    const auto without = cpu::CoreModel(no_fit).run(t);
    EXPECT_GT(statValue(with_fit.statsText, "searchPipeline.fitAccels"), 0);
    EXPECT_EQ(statValue(without.statsText, "searchPipeline.fitAccels"), 0);
    EXPECT_EQ(without.instructions, t.size());
}

TEST(ParamsValidate, CoreModelRefusesInvalidConfig)
{
    MachineParams p = sim::configBtb2();
    p.phtEntries = 7;
    EXPECT_THROW(cpu::CoreModel m(p), std::invalid_argument);
}

} // namespace
} // namespace zbp::core
