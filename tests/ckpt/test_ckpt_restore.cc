/**
 * @file
 * Machine-state restore fidelity: a run that is snapshotted mid-trace
 * and restored into a fresh model must finish with counters
 * bit-identical to the uninterrupted run — across single-core configs,
 * a 4-core CMP, and arbitrary snapshot points — and a corrupted
 * snapshot must either restore bit-identically (benign damage) or
 * throw CkptError, never finish with different counters.  A restored
 * model re-saves to the image it was restored from, and a snapshot
 * whose CRCs are valid but whose element counts are absurd is rejected
 * with CkptError before anything is sized by them.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
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

/**
 * Re-save @p m straight after it restored @p bytes.  Every section must
 * come back byte-identical: address-keyed tables list in ascending key
 * order, so not even their element order may change.  This catches a
 * field restored into the wrong member, or not restored at all, when
 * no counter shows it.
 */
template <typename Model>
void
expectResaveMatches(const std::vector<std::uint8_t> &bytes, const Model &m)
{
    ckpt::Writer w;
    m.saveState(w);
    w.finish();
    const auto diffs = ckpt::diffSnapshots(ckpt::SnapshotBuffer(bytes),
                                           ckpt::SnapshotBuffer::capture(w));
    for (const ckpt::SectionDiff &d : diffs)
        EXPECT_EQ(d.kind, ckpt::SectionDiff::Kind::kMatch)
                << ckpt::tagName(d.tagA) << " section " << d.index;
}

/** Restore @p bytes into a fresh model and run it to completion;
 * with @p resave, first check the restored model re-saves to @p bytes
 * (expectResaveMatches). */
SimResult
finishFromSnapshot(const core::MachineParams &cfg, const trace::Trace &t,
                   const std::vector<std::uint8_t> &bytes,
                   bool resave = false)
{
    CoreModel m(cfg);
    m.beginRun(t);
    ckpt::Reader r(bytes.data(), bytes.size());
    m.restoreState(r);
    r.finish();
    if (resave)
        expectResaveMatches(bytes, m);
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
                EXPECT_EQ(counterMismatch(full, finishFromSnapshot(
                                                        c.cfg, t, bytes, true)),
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

/** Payload offset of the first section tagged @p tag in @p bytes. */
std::size_t
payloadOf(const std::vector<std::uint8_t> &bytes, std::uint32_t tag)
{
    std::size_t pos = 8; // magic + format version
    while (pos + 12 <= bytes.size()) {
        std::uint32_t t = 0;
        std::uint64_t len = 0;
        std::memcpy(&t, &bytes[pos], 4);
        std::memcpy(&len, &bytes[pos + 4], 8);
        if (t == tag)
            return pos + 12;
        pos += 12 + static_cast<std::size_t>(len) + 4;
    }
    ADD_FAILURE() << "no section " << ckpt::tagName(tag);
    return 0;
}

/** Overwrite @p width bytes at @p at inside the section whose payload
 * starts at @p payload, then recompute that section's CRC so only the
 * semantic checks can catch the damage. */
void
patchSection(std::vector<std::uint8_t> &bytes, std::size_t payload,
             std::size_t at, std::uint64_t value, std::size_t width)
{
    std::uint64_t len = 0;
    std::memcpy(&len, &bytes[payload - 8], 8);
    ASSERT_LE(at + width, len);
    std::memcpy(&bytes[payload + at], &value, width);
    const std::uint32_t crc =
            ckpt::crc32(&bytes[payload], static_cast<std::size_t>(len));
    std::memcpy(&bytes[payload + static_cast<std::size_t>(len)], &crc, 4);
}

TEST(CkptRestore, HugeElementCountRejectedAsCorruption)
{
    // A CRC-valid image whose element count is huge must be rejected
    // as corrupt (CkptError, which the runner discards and recovers
    // from), not sized into a std::bad_alloc.
    const trace::Trace t = makeTrace("ckpt-small");
    const core::MachineParams cfg = sim::configBtb2();
    const auto bytes = snapshotAt(cfg, t, t.size() / 2);

    // outcomes: 8 outcome counters and the total, then the seen count.
    auto bad = bytes;
    patchSection(bad, payloadOf(bad, ckpt::tag::kOutcomes), 9 * 8,
                 std::uint64_t{1} << 60, 8);
    EXPECT_THROW(finishFromSnapshot(cfg, t, bad), ckpt::CkptError);

    // search-pipe: the prediction queue count leads the payload.
    bad = bytes;
    patchSection(bad, payloadOf(bad, ckpt::tag::kSearchPipe), 0,
                 0xFFFFFFFFu, 4);
    EXPECT_THROW(finishFromSnapshot(cfg, t, bad), ckpt::CkptError);

    // icache (the L1I, first of its tag): geometry, 9 bytes per line,
    // one LRU byte per line, then the blockMiss count.
    bad = bytes;
    const std::size_t ic = payloadOf(bad, ckpt::tag::kICache);
    std::uint32_t sets = 0;
    std::uint32_t ways = 0;
    std::memcpy(&sets, &bad[ic], 4);
    std::memcpy(&ways, &bad[ic + 4], 4);
    patchSection(bad, ic, 12 + std::size_t{sets} * ways * 10,
                 std::uint64_t{1} << 60, 8);
    EXPECT_THROW(finishFromSnapshot(cfg, t, bad), ckpt::CkptError);
}

TEST(CkptRestore, UnsortedAddressListRejectedAsCorruption)
{
    // Address-keyed tables are listed in ascending key order; a
    // CRC-valid image whose list is out of order is corrupt.
    const trace::Trace t = makeTrace("ckpt-small");
    const core::MachineParams cfg = sim::configBtb2();
    const auto bytes = snapshotAt(cfg, t, t.size() / 2);

    // Swap the first two keys of the list at payload offset @p list of
    // the first section tagged @p tag, whose elements span @p stride
    // bytes each (the key first).
    const auto swapped = [&bytes](std::uint32_t tag, std::size_t list,
                                  std::size_t stride) {
        auto bad = bytes;
        const std::size_t p = payloadOf(bad, tag);
        std::uint64_t n = 0;
        std::uint64_t k0 = 0;
        std::uint64_t k1 = 0;
        std::memcpy(&n, &bad[p + list], 8);
        EXPECT_GE(n, 2u) << ckpt::tagName(tag);
        std::memcpy(&k0, &bad[p + list + 8], 8);
        std::memcpy(&k1, &bad[p + list + 8 + stride], 8);
        EXPECT_LT(k0, k1) << ckpt::tagName(tag);
        patchSection(bad, p, list + 8, k1, 8);
        patchSection(bad, p, list + 8 + stride, k0, 8);
        return bad;
    };

    // hierarchy: BTB2 ownership, then installCycle (branch, cycle).
    EXPECT_THROW(finishFromSnapshot(cfg, t,
                                    swapped(ckpt::tag::kHierarchy, 1, 16)),
                 ckpt::CkptError);
    // icache (the L1I): geometry, 9 bytes per line, one LRU byte per
    // line, then blockMiss (block, cycle).
    const std::size_t ic = payloadOf(bytes, ckpt::tag::kICache);
    std::uint32_t sets = 0;
    std::uint32_t ways = 0;
    std::memcpy(&sets, &bytes[ic], 4);
    std::memcpy(&ways, &bytes[ic + 4], 4);
    EXPECT_THROW(finishFromSnapshot(
                         cfg, t,
                         swapped(ckpt::tag::kICache,
                                 12 + std::size_t{sets} * ways * 10, 16)),
                 ckpt::CkptError);
    // outcomes: 8 outcome counters and the total, then the seen set.
    EXPECT_THROW(finishFromSnapshot(cfg, t,
                                    swapped(ckpt::tag::kOutcomes, 9 * 8, 8)),
                 ckpt::CkptError);
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
    expectResaveMatches(w.bytes(), restored);
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
