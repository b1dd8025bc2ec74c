/**
 * @file
 * Tests for the N-core CmpModel.  The load-bearing properties:
 *
 *  - N=1 with a single zero-conflict bank is bit-identical to a plain
 *    CoreModel run (the golden-counter suite pins the same property
 *    against checked-in values);
 *  - chunked advance() with any monotone target sequence reproduces
 *    run() exactly, per core and at the arbiter;
 *  - two cores on one bank actually contend (nonzero sharing stats).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "zbp/sim/cmp/cmp_model.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/suites.hh"

namespace zbp::sim
{
namespace
{

trace::Trace
suiteTrace(const char *name, double scale = 0.02)
{
    return workload::makeSuiteTrace(workload::findSuite(name), scale);
}

TEST(CmpModel, SingleCoreSingleBankMatchesCoreModel)
{
    const auto t = suiteTrace("tpf");

    cpu::CoreModel ref(configBtb2());
    const auto refR = ref.run(t);

    core::MachineParams cfg = configBtb2();
    cfg.cmp.cores = 1;
    cfg.cmp.btb2Banks = 1;
    CmpModel cmp(cfg);
    const auto r = cmp.run({&t});

    ASSERT_EQ(r.core.size(), 1u);
    EXPECT_EQ(cpu::counterMismatch(r.core[0], refR), "");
    EXPECT_EQ(r.core[0].statsText, refR.statsText);
    // The arbiter was observationally absent: every read granted at
    // its request cycle.
    EXPECT_EQ(r.arbRequests, refR.btb2RowReads);
    EXPECT_EQ(r.arbConflicts, 0u);
    EXPECT_EQ(r.arbWaitCycles, 0u);
    EXPECT_EQ(r.arbQueueFullRejects, 0u);
}

TEST(CmpModel, ChunkedAdvanceBitIdenticalToRun)
{
    const auto ta = suiteTrace("tpf");
    const auto tb = suiteTrace("cb84");
    core::MachineParams cfg = configBtb2();
    cfg.cmp.cores = 2;
    cfg.cmp.btb2Banks = 2;

    CmpModel whole(cfg);
    const auto ref = whole.run({&ta, &tb});

    CmpModel chunked(cfg);
    chunked.beginRun({&ta, &tb});
    // Awkward chunk size on purpose: never aligned to stepInsts.
    for (std::size_t target = 777; !chunked.advance(target);
         target += 777) {
    }
    const auto got = chunked.finishRun();

    EXPECT_EQ(cmpMismatch(got, ref), "");
    for (std::size_t i = 0; i < ref.core.size(); ++i)
        EXPECT_EQ(got.core[i].statsText, ref.core[i].statsText);
}

TEST(CmpModel, TwoCoresOneBankContend)
{
    // Two cores running the same trace issue near-identical transfer
    // schedules, so a single bank must see conflicts.
    const auto t = suiteTrace("tpf");
    core::MachineParams cfg = configBtb2();
    cfg.cmp.cores = 2;
    cfg.cmp.btb2Banks = 1;
    CmpModel cmp(cfg);
    const auto r = cmp.run({&t, &t});

    EXPECT_GT(r.arbRequests, 0u);
    EXPECT_GT(r.arbGrants, 0u);
    EXPECT_GT(r.arbConflicts, 0u);
    EXPECT_GT(r.arbWaitCycles, 0u);
    ASSERT_EQ(r.coreGrants.size(), 2u);
    EXPECT_GT(r.coreGrants[0], 0u);
    EXPECT_GT(r.coreGrants[1], 0u);
    // Contention costs only performance: both cores still decode the
    // whole trace with the usual outcome taxonomy.
    for (const auto &c : r.core) {
        EXPECT_EQ(c.instructions, t.size());
        EXPECT_EQ(c.correct + c.mispredictDir + c.mispredictTarget +
                          c.surpriseCompulsory + c.surpriseLatency +
                          c.surpriseCapacity + c.surpriseBenign,
                  c.branches);
    }
}

TEST(CmpModel, SharedL2iBackstopsTheCoreL1is)
{
    const auto t = suiteTrace("tpf");
    core::MachineParams cfg = configBtb2();
    cfg.cmp.cores = 2;
    cfg.cmp.sharedL2i = true;
    CmpModel cmp(cfg);
    const auto r = cmp.run({&t, &t});

    EXPECT_GT(r.l2iHits + r.l2iMisses, 0u);
    ASSERT_EQ(r.l2iCoreHits.size(), 2u);
    ASSERT_EQ(r.l2iCoreMisses.size(), 2u);
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < 2; ++i)
        acc += r.l2iCoreHits[i] + r.l2iCoreMisses[i];
    EXPECT_EQ(acc, r.l2iHits + r.l2iMisses);
    // Identical footprints: the second core's lines are mostly already
    // in the shared array, so hits must show up.
    EXPECT_GT(r.l2iHits, 0u);
}

TEST(CmpModel, RejectsTraceCountMismatch)
{
    const auto t = suiteTrace("cb84", 0.01);
    core::MachineParams cfg = configBtb2();
    cfg.cmp.cores = 2;
    CmpModel cmp(cfg);
    EXPECT_THROW(cmp.run({&t}), std::invalid_argument);
}

} // namespace
} // namespace zbp::sim
