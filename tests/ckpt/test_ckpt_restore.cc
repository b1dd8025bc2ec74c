/**
 * @file
 * Machine-state restore fidelity: a run that is snapshotted mid-trace
 * and restored into a fresh model must finish with counters
 * bit-identical to the uninterrupted run — across single-core configs,
 * a 4-core CMP, and arbitrary snapshot points — and a corrupted
 * snapshot must either restore bit-identically (benign damage) or
 * throw CkptError, never finish with different counters.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/sim/cmp/cmp_model.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"
#include "zbp/workload/suites.hh"

namespace zbp::cpu
{
namespace
{

trace::Trace
makeTrace(const std::string &name)
{
    if (name == "ckpt-small") {
        workload::BuildParams bp;
        bp.seed = 3;
        bp.numFunctions = 50;
        const auto prog = workload::buildProgram(bp);
        workload::GenParams gp;
        gp.seed = 4;
        gp.length = 20'000;
        return workload::generateTrace(prog, gp, "ckpt-small");
    }
    if (name == "ckpt-caps") {
        workload::BuildParams bp;
        bp.seed = 11;
        bp.numFunctions = 150;
        const auto prog = workload::buildProgram(bp);
        workload::GenParams gp;
        gp.seed = 12;
        gp.length = 40'000;
        gp.phaseLength = 15'000;
        return workload::generateTrace(prog, gp, "ckpt-caps");
    }
    return workload::makeSuiteTrace(workload::findSuite("tpf"), 0.02);
}

/** Snapshot a run at @p at instructions and return the bytes. */
std::vector<std::uint8_t>
snapshotAt(const core::MachineParams &cfg, const trace::Trace &t,
           std::size_t at)
{
    CoreModel m(cfg);
    m.beginRun(t);
    m.advance(at);
    ckpt::Writer w;
    m.saveState(w);
    w.finish();
    return w.bytes();
}

/** Restore @p bytes into a fresh model and run it to completion. */
SimResult
finishFromSnapshot(const core::MachineParams &cfg, const trace::Trace &t,
                   const std::vector<std::uint8_t> &bytes)
{
    CoreModel m(cfg);
    m.beginRun(t);
    ckpt::Reader r(bytes.data(), bytes.size());
    m.restoreState(r);
    r.finish();
    m.advance(t.size());
    return m.finishRun();
}

TEST(CkptRestore, CoreBitIdenticalAcrossTracesAndConfigs)
{
    const struct
    {
        const char *config;
        core::MachineParams cfg;
    } configs[] = {
        {"no-btb2", sim::configNoBtb2()},
        {"btb2", sim::configBtb2()},
    };
    for (const char *tn : {"ckpt-small", "ckpt-caps", "tpf"}) {
        const trace::Trace t = makeTrace(tn);
        for (const auto &c : configs) {
            SCOPED_TRACE(std::string(tn) + "/" + c.config);
            CoreModel golden(c.cfg);
            const SimResult full = golden.run(t);
            // Several snapshot points, including awkward ones right at
            // the start and near the end.
            for (const std::size_t at :
                 {std::size_t{1}, t.size() / 3, (2 * t.size()) / 3,
                  t.size() - 1}) {
                SCOPED_TRACE(at);
                const auto bytes = snapshotAt(c.cfg, t, at);
                EXPECT_EQ(counterMismatch(
                                  full, finishFromSnapshot(c.cfg, t, bytes)),
                          "");
            }
        }
    }
}

TEST(CkptRestore, RestoreOverDifferentTraceRejected)
{
    const trace::Trace a = makeTrace("ckpt-small");
    const trace::Trace b = makeTrace("ckpt-caps");
    const auto bytes = snapshotAt(sim::configBtb2(), a, a.size() / 2);
    CoreModel m(sim::configBtb2());
    m.beginRun(b);
    ckpt::Reader r(bytes.data(), bytes.size());
    EXPECT_THROW(m.restoreState(r), ckpt::CkptError);
}

TEST(CkptRestore, RestoreIntoDifferentMachineShapeRejected)
{
    const trace::Trace t = makeTrace("ckpt-small");
    const auto bytes = snapshotAt(sim::configBtb2(), t, t.size() / 2);
    // A no-BTB2 machine lacks the transfer engine the snapshot holds.
    CoreModel m(sim::configNoBtb2());
    m.beginRun(t);
    ckpt::Reader r(bytes.data(), bytes.size());
    EXPECT_THROW(m.restoreState(r), ckpt::CkptError);
}

TEST(CkptRestore, CorruptSnapshotNeverYieldsWrongCounters)
{
    const trace::Trace t = makeTrace("ckpt-small");
    const core::MachineParams cfg = sim::configBtb2();
    CoreModel golden(cfg);
    const SimResult full = golden.run(t);
    const auto bytes = snapshotAt(cfg, t, t.size() / 2);

    const auto tryDamaged = [&](const std::vector<std::uint8_t> &bad) {
        try {
            EXPECT_EQ(counterMismatch(full,
                                      finishFromSnapshot(cfg, t, bad)),
                      "");
        } catch (const ckpt::CkptError &) {
            // Rejection is the expected outcome for real damage.
        }
    };

    // Truncations: every length in the header region, then a stride
    // sweep across the body (every byte would be needlessly slow).
    for (std::size_t n = 0; n < std::min<std::size_t>(64, bytes.size());
         ++n)
        tryDamaged({bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(n)});
    for (std::size_t n = 64; n < bytes.size(); n += 997)
        tryDamaged({bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(n)});

    // Bit flips: full coverage of the header, stride across the body,
    // and always the final 16 bytes (terminal section + last CRC).
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < std::min<std::size_t>(64, bytes.size());
         ++i)
        positions.push_back(i);
    for (std::size_t i = 64; i < bytes.size(); i += 1237)
        positions.push_back(i);
    for (std::size_t i = bytes.size() >= 16 ? bytes.size() - 16 : 0;
         i < bytes.size(); ++i)
        positions.push_back(i);
    for (const std::size_t i : positions) {
        auto bad = bytes;
        bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
        tryDamaged(bad);
    }
}

TEST(CkptRestore, CmpFourCoreBitIdentical)
{
    const trace::Trace t = makeTrace("ckpt-caps");
    const trace::Trace t2 = makeTrace("ckpt-small");
    core::MachineParams cfg = sim::configBtb2();
    cfg.cmp.cores = 4;
    cfg.cmp.btb2Banks = 2;
    const std::vector<const trace::Trace *> tps{&t, &t2, &t, &t2};

    sim::CmpModel golden(cfg);
    const sim::CmpResult full = golden.run(tps);

    sim::CmpModel saver(cfg);
    saver.beginRun(tps);
    saver.advance(t.size() / 2);
    ckpt::Writer w;
    saver.saveState(w);
    w.finish();

    sim::CmpModel restored(cfg);
    restored.beginRun(tps);
    ckpt::Reader r(w.bytes().data(), w.bytes().size());
    restored.restoreState(r);
    r.finish();
    restored.advance(restored.maxInsts());
    const sim::CmpResult got = restored.finishRun();

    EXPECT_EQ(sim::cmpMismatch(full, got), "");
}

TEST(CkptRestore, CmpCoreCountMismatchRejected)
{
    const trace::Trace t = makeTrace("ckpt-small");
    core::MachineParams cfg = sim::configBtb2();
    cfg.cmp.cores = 2;
    cfg.cmp.btb2Banks = 2;

    sim::CmpModel saver(cfg);
    saver.beginRun({&t, &t});
    saver.advance(t.size() / 2);
    ckpt::Writer w;
    saver.saveState(w);
    w.finish();

    core::MachineParams other = cfg;
    other.cmp.cores = 4;
    sim::CmpModel m(other);
    m.beginRun({&t, &t, &t, &t});
    ckpt::Reader r(w.bytes().data(), w.bytes().size());
    EXPECT_THROW(m.restoreState(r), ckpt::CkptError);
}

} // namespace
} // namespace zbp::cpu
