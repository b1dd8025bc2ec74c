/**
 * @file
 * Golden-counter regression tests: small fixed-seed traces run through
 * the three Figure 2 configurations, with every SimResult counter
 * (cpu::kSimCounters) and the CPI bits asserted against checked-in
 * values captured from the reference implementation.  These pin the
 * simulator's observable behaviour so hot-path optimisations
 * (allocation removal, idle-cycle skipping) and decode refactors cannot
 * silently drift the numbers.  Both execution modes are pinned: the
 * detailed run and the functional warm-up (sampled simulation).
 *
 * The snapshot images are pinned the same way: kSnapshotDigests holds
 * the FNV-1a of mid-run checkpoint images, so a refactor of the
 * save/restore code cannot change a single snapshot byte unnoticed.
 *
 * Regenerating: build with the implementation you trust, then run
 *   ZBP_GOLDEN_REGEN=1 ./zbp_core_tests --gtest_filter='GoldenCounters*'
 * and paste the printed rows over the kGolden/kGoldenFunctional/
 * kSnapshotDigests tables.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/hash.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/runner/gang_job.hh"
#include "zbp/sample/sample_runner.hh"
#include "zbp/sim/cmp/cmp_model.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"
#include "zbp/workload/suites.hh"

namespace zbp::cpu
{
namespace
{

/** One trace x config: every counter, in kSimCounters order. */
struct GoldenRow
{
    const char *trace;
    const char *config;
    std::uint64_t counters[std::size(kSimCounters)];
};

// clang-format off
/** Detailed runs (CoreModel::run). */
const GoldenRow kGolden[] = {
    // Captured from the reference implementation (pre-optimisation
    // seed); regenerate with ZBP_GOLDEN_REGEN=1 (see file header).
    {"golden-small", "no-btb2", {34558, 20006, 3849, 3189, 2987, 190, 226, 175, 1, 0, 270, 0, 34, 1177, 6495, 331, 0, 0, 0, 0, 9879, 0, 3849, 0}},
    {"golden-small", "btb2", {34558, 20006, 3849, 3189, 2987, 190, 226, 175, 1, 0, 270, 0, 34, 1177, 6495, 331, 5152, 1129, 40, 8, 9879, 0, 3849, 0}},
    {"golden-small", "large-btb1", {34558, 20006, 3849, 3189, 2987, 190, 226, 175, 1, 0, 270, 0, 34, 1177, 6495, 331, 0, 0, 0, 0, 9879, 0, 3849, 0}},
    {"golden-caps", "no-btb2", {60079, 40004, 6990, 5605, 5225, 306, 194, 447, 5, 0, 813, 0, 112, 1829, 13286, 927, 0, 0, 0, 0, 13970, 0, 6990, 0}},
    {"golden-caps", "btb2", {60079, 40004, 6990, 5605, 5225, 306, 194, 447, 5, 0, 813, 0, 112, 1829, 13286, 927, 14164, 2158, 107, 55, 13970, 0, 6990, 0}},
    {"golden-caps", "large-btb1", {60074, 40004, 6990, 5605, 5225, 306, 194, 447, 5, 0, 813, 0, 112, 1829, 13286, 927, 0, 0, 0, 0, 13979, 0, 6990, 0}},
    {"tpf", "no-btb2", {56148, 32001, 8354, 6378, 5691, 380, 104, 985, 11, 8, 1175, 0, 280, 1163, 9413, 2086, 0, 0, 0, 0, 13785, 0, 8354, 0}},
    {"tpf", "btb2", {56128, 32001, 8354, 6378, 5690, 379, 104, 985, 11, 10, 1175, 0, 280, 1163, 9413, 2086, 29052, 2247, 218, 101, 13792, 0, 8354, 0}},
    {"tpf", "large-btb1", {56146, 32001, 8354, 6378, 5691, 380, 104, 985, 11, 8, 1175, 0, 280, 1163, 9413, 2086, 0, 0, 0, 0, 13793, 0, 8354, 0}},
};

/** Functional warm-up: beginRun, advanceFunctional(size / 2),
 * advanceFunctional(size), interimResult(). */
const GoldenRow kGoldenFunctional[] = {
    {"golden-small", "no-btb2", {34790, 20006, 3849, 3189, 2989, 189, 226, 175, 0, 0, 270, 0, 34, 1177, 6495, 0, 0, 0, 0, 0, 0, 0, 3849, 0}},
    {"golden-small", "btb2", {34790, 20006, 3849, 3189, 2989, 189, 226, 175, 0, 0, 270, 0, 34, 1177, 6495, 0, 34764, 8432, 266, 179, 0, 0, 3849, 0}},
    {"golden-small", "large-btb1", {34790, 20006, 3849, 3189, 2989, 189, 226, 175, 0, 0, 270, 0, 34, 1177, 6495, 0, 0, 0, 0, 0, 0, 0, 3849, 0}},
    {"golden-caps", "no-btb2", {60828, 40004, 6990, 5605, 5228, 308, 194, 447, 0, 0, 813, 0, 112, 1829, 13286, 0, 0, 0, 0, 0, 0, 0, 6990, 0}},
    {"golden-caps", "btb2", {60828, 40004, 6990, 5605, 5228, 308, 194, 447, 0, 0, 813, 0, 112, 1829, 13286, 0, 81672, 13383, 618, 642, 0, 0, 6990, 0}},
    {"golden-caps", "large-btb1", {60828, 40004, 6990, 5605, 5228, 308, 194, 447, 0, 0, 813, 0, 112, 1829, 13286, 0, 0, 0, 0, 0, 0, 0, 6990, 0}},
    {"tpf", "no-btb2", {54692, 32001, 8354, 6378, 5701, 381, 103, 985, 0, 9, 1175, 0, 280, 1163, 9413, 0, 0, 0, 0, 0, 0, 0, 8354, 0}},
    {"tpf", "btb2", {54708, 32001, 8354, 6378, 5705, 381, 104, 985, 0, 4, 1175, 0, 280, 1163, 9413, 0, 222184, 19042, 1722, 442, 0, 0, 8354, 0}},
    {"tpf", "large-btb1", {54692, 32001, 8354, 6378, 5701, 381, 103, 985, 0, 9, 1175, 0, 280, 1163, 9413, 0, 0, 0, 0, 0, 0, 0, 8354, 0}},
};
/** One mid-run snapshot image, named by how it was taken. */
struct SnapshotDigest
{
    const char *name;
    std::uint64_t digest; ///< fnv1a over the image bytes
};

/** See snapshotImage() for what each name means. */
const SnapshotDigest kSnapshotDigests[] = {
    {"detailed/golden-small/no-btb2", 0x2a9c2924ae8b9ee2ull},
    {"detailed/golden-small/btb2", 0xe6151ae5f688ce6aull},
    {"detailed/golden-small/large-btb1", 0x63eb550714383be5ull},
    {"detailed/golden-caps/no-btb2", 0x4e0439e75cf1588full},
    {"detailed/golden-caps/btb2", 0x507bb3266562e224ull},
    {"detailed/golden-caps/large-btb1", 0x1053f206846d1494ull},
    {"detailed/tpf/no-btb2", 0xd35023e8e31aac34ull},
    {"detailed/tpf/btb2", 0xeec01220fae49f57ull},
    {"detailed/tpf/large-btb1", 0x508a301d4b411fd0ull},
    {"functional/golden-small/no-btb2", 0x07194f7032821cf0ull},
    {"functional/golden-small/btb2", 0x88ae361444871587ull},
    {"functional/golden-small/large-btb1", 0xebd7e6dc579b8524ull},
    {"functional/golden-caps/no-btb2", 0xa17a2417dda25249ull},
    {"functional/golden-caps/btb2", 0x77a3b06ad5f53f57ull},
    {"functional/golden-caps/large-btb1", 0x47b3e6175ec9ccf0ull},
    {"functional/tpf/no-btb2", 0x00eb0919c31cbf5aull},
    {"functional/tpf/btb2", 0xe8f9019253fc6c0eull},
    {"functional/tpf/large-btb1", 0x3725ed54e3c80134ull},
    {"cmp4/shared-l2i/2-banks", 0x84e9dcdb59a824f5ull},
    {"gang/golden-small/no-btb2+btb2", 0x2fb8426ca084a2bbull},
    {"interval/golden-small/btb2", 0xd5cba45a8a0b6490ull},
};
// clang-format on

bool
regenMode()
{
    const char *v = std::getenv("ZBP_GOLDEN_REGEN");
    return v != nullptr && *v != '\0';
}

trace::Trace
makeGoldenTrace(const std::string &name)
{
    if (name == "golden-small") {
        workload::BuildParams bp;
        bp.seed = 3;
        bp.numFunctions = 50;
        const auto prog = workload::buildProgram(bp);
        workload::GenParams gp;
        gp.seed = 4;
        gp.length = 20'000;
        return workload::generateTrace(prog, gp, "golden-small");
    }
    if (name == "golden-caps") {
        // Enough functions to pressure BTB1 capacity so the BTB2
        // transfer engine does real work in the btb2 configs.
        workload::BuildParams bp;
        bp.seed = 11;
        bp.numFunctions = 150;
        const auto prog = workload::buildProgram(bp);
        workload::GenParams gp;
        gp.seed = 12;
        gp.length = 40'000;
        gp.phaseLength = 15'000; // exercise phase rotation
        return workload::generateTrace(prog, gp, "golden-caps");
    }
    return workload::makeSuiteTrace(workload::findSuite("tpf"), 0.02);
}

/** The golden trace @p name, generated once per test binary. */
const trace::Trace &
goldenTrace(const std::string &name)
{
    static std::map<std::string, trace::Trace> cache;
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache.emplace(name, makeGoldenTrace(name)).first;
    return it->second;
}

core::MachineParams
configFor(const std::string &name)
{
    if (name == "no-btb2")
        return sim::configNoBtb2();
    if (name == "btb2")
        return sim::configBtb2();
    return sim::configLargeBtb1();
}

void
printRegenRow(const GoldenRow &g, const SimResult &r)
{
    std::printf("    {\"%s\", \"%s\", {", g.trace, g.config);
    const char *sep = "";
    for (const SimCounter &c : kSimCounters) {
        std::printf("%s%llu", sep,
                    static_cast<unsigned long long>(r.*c.member));
        sep = ", ";
    }
    std::printf("}},\n");
}

void
expectMatchesGolden(const GoldenRow &g, const SimResult &r)
{
    const std::string ctx = std::string(g.trace) + " / " + g.config;
    for (std::size_t i = 0; i < std::size(kSimCounters); ++i)
        EXPECT_EQ(r.*kSimCounters[i].member, g.counters[i])
                << ctx << ": " << kSimCounters[i].name;
    // CPI is derived, but assert it stays bit-identical too.
    const double cpi = static_cast<double>(g.counters[0]) /
                       static_cast<double>(g.counters[1]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.cpi),
              std::bit_cast<std::uint64_t>(cpi))
            << ctx << ": cpi " << r.cpi << " != " << cpi;
    // The outcome taxonomy must tile the branch count exactly.
    EXPECT_EQ(r.correct + r.mispredictDir + r.mispredictTarget +
                  r.surpriseCompulsory + r.surpriseLatency +
                  r.surpriseCapacity + r.surpriseBenign,
              r.branches)
        << ctx;
}

/** Check (or, in regen mode, print) every row of @p table against the
 * result @p simulate produces for its trace and config. */
template <std::size_t N, typename Simulate>
void
checkTable(const char *table_name, const GoldenRow (&table)[N],
           Simulate simulate)
{
    const bool regen = regenMode();
    if (regen)
        std::printf("const GoldenRow %s[] = {\n", table_name);
    for (const GoldenRow &g : table) {
        const SimResult r =
                simulate(configFor(g.config), goldenTrace(g.trace));
        if (regen)
            printRegenRow(g, r);
        else
            expectMatchesGolden(g, r);
    }
    if (regen) {
        std::printf("};\n");
        GTEST_SKIP() << "regen mode: printed actual counters, "
                        "no assertions run";
    }
}

TEST(GoldenCounters, AllTracesAllConfigsMatchCheckedInValues)
{
    checkTable("kGolden", kGolden,
               [](const core::MachineParams &cfg, const trace::Trace &t) {
                   CoreModel m(cfg);
                   return m.run(t);
               });
}

TEST(GoldenCounters, FunctionalWarmupMatchesCheckedInValues)
{
    // Two chunks, so the pin also covers chunk composition (decode
    // bandwidth keyed on the absolute cursor, the drained-machine
    // resync between calls).
    checkTable("kGoldenFunctional", kGoldenFunctional,
               [](const core::MachineParams &cfg, const trace::Trace &t) {
                   CoreModel m(cfg);
                   m.beginRun(t);
                   m.advanceFunctional(t.size() / 2);
                   m.advanceFunctional(t.size());
                   return m.interimResult();
               });
}

TEST(GoldenCounters, CmpSingleCoreSingleBankMatchesCheckedInValues)
{
    // The N=1 CMP equivalence regression: a CmpModel with one core and
    // a single zero-conflict BTB2 bank must be bit-identical to the
    // plain CoreModel these golden rows were captured from.  Any drift
    // in the arbiter hook, the shared-BTB2 plumbing, or the lockstep
    // window logic shows up here as a counter mismatch.
    if (regenMode())
        GTEST_SKIP() << "regen mode: the CoreModel test prints the rows";

    for (const auto &g : kGolden) {
        core::MachineParams cfg = configFor(g.config);
        cfg.cmp.cores = 1;
        cfg.cmp.btb2Banks = 1;
        sim::CmpModel m(cfg);
        const auto r = m.run({&goldenTrace(g.trace)});
        ASSERT_EQ(r.core.size(), 1u);
        expectMatchesGolden(g, r.core[0]);
        // The degenerate arbiter never delayed anything.
        EXPECT_EQ(r.arbConflicts, 0u) << g.trace << " / " << g.config;
        EXPECT_EQ(r.arbWaitCycles, 0u) << g.trace << " / " << g.config;
        EXPECT_EQ(r.arbQueueFullRejects, 0u)
                << g.trace << " / " << g.config;
    }
}

/** The finish()ed image of @p save(w). */
template <typename Save>
ckpt::SnapshotBuffer
imageOf(Save save)
{
    ckpt::Writer w;
    save(w);
    w.finish();
    return ckpt::SnapshotBuffer::capture(w);
}

/** A CoreModel over @p trace, stopped halfway by @p mode ("detailed"
 * or "functional"), snapshotted. */
ckpt::SnapshotBuffer
coreImage(const std::string &mode, const core::MachineParams &cfg,
          const trace::Trace &t)
{
    CoreModel m(cfg);
    m.beginRun(t);
    if (mode == "functional")
        m.advanceFunctional(t.size() / 2);
    else
        m.advance(t.size() / 2);
    return imageOf([&](ckpt::Writer &w) { m.saveState(w); });
}

/** Every image kSnapshotDigests pins, in table order. */
std::vector<std::pair<std::string, ckpt::SnapshotBuffer>>
snapshotImages()
{
    std::vector<std::pair<std::string, ckpt::SnapshotBuffer>> out;
    for (const char *mode : {"detailed", "functional"})
        for (const GoldenRow &g : kGolden)
            out.emplace_back(std::string(mode) + "/" + g.trace + "/" +
                                     g.config,
                             coreImage(mode, configFor(g.config),
                                       goldenTrace(g.trace)));

    core::MachineParams cmp = sim::configBtb2();
    cmp.cmp.cores = 4;
    cmp.cmp.btb2Banks = 2;
    cmp.cmp.sharedL2i = true;
    const trace::Trace &caps = goldenTrace("golden-caps");
    const trace::Trace &small = goldenTrace("golden-small");
    sim::CmpModel chip(cmp);
    chip.beginRun({&caps, &small, &caps, &small});
    chip.advance(small.size() / 2);
    out.emplace_back("cmp4/shared-l2i/2-banks",
                     imageOf([&](ckpt::Writer &w) { chip.saveState(w); }));

    runner::GangJob gang({{"no-btb2", sim::configNoBtb2()},
                          {"btb2", sim::configBtb2()}},
                         &small);
    gang.begin(nullptr);
    gang.advance(small.size() / 2);
    out.emplace_back("gang/golden-small/no-btb2+btb2",
                     imageOf([&](ckpt::Writer &w) { gang.save(w); }));

    const core::MachineParams btb2 = sim::configBtb2();
    std::promise<ckpt::SnapshotBuffer> none;
    none.set_value({});
    sample::IntervalPlan iv;
    iv.measureBegin = small.size() / 4;
    iv.measureEnd = small.size();
    sample::IntervalJob interval("btb2", btb2, small, iv,
                                 none.get_future().share(), false);
    interval.begin(nullptr);
    interval.advance(small.size() / 2);
    out.emplace_back("interval/golden-small/btb2",
                     imageOf([&](ckpt::Writer &w) { interval.save(w); }));
    return out;
}

TEST(GoldenCounters, SnapshotDigestsMatchCheckedInValues)
{
    // Snapshot bytes are a file format: a restore-side refactor must
    // leave every image byte-identical, section order included.
    const auto images = snapshotImages();
    if (regenMode()) {
        std::printf("const SnapshotDigest kSnapshotDigests[] = {\n");
        for (const auto &[name, img] : images) {
            const std::string_view bytes(
                    reinterpret_cast<const char *>(img.bytes().data()),
                    img.sizeBytes());
            std::printf("    {\"%s\", 0x%016llxull},\n", name.c_str(),
                        static_cast<unsigned long long>(fnv1a(bytes)));
        }
        std::printf("};\n");
        GTEST_SKIP() << "regen mode: printed actual digests, "
                        "no assertions run";
    }
    ASSERT_EQ(images.size(), std::size(kSnapshotDigests));
    std::set<std::uint32_t> tags;
    for (std::size_t i = 0; i < images.size(); ++i) {
        const auto &[name, img] = images[i];
        EXPECT_EQ(name, kSnapshotDigests[i].name);
        const std::string_view bytes(
                reinterpret_cast<const char *>(img.bytes().data()),
                img.sizeBytes());
        EXPECT_EQ(fnv1a(bytes), kSnapshotDigests[i].digest) << name;
        for (const ckpt::SectionDiff &d : ckpt::diffSnapshots(img, img))
            tags.insert(d.tagA);
    }
    // Together the images exercise every component's section (0x0D is
    // a retired tag).
    for (std::uint32_t t = ckpt::tag::kBtb; t <= ckpt::tag::kGang; ++t) {
        if (t != 0x0D) {
            EXPECT_TRUE(tags.count(t) != 0) << ckpt::tagName(t);
        }
    }
}

} // namespace
} // namespace zbp::cpu
