/**
 * @file
 * IntervalSampler / IntervalWriter tests, plus the end-to-end pillar of
 * the interval contract: with sampling attached to a real CoreModel
 * run, (1) the simulation's counters stay bit-identical to an
 * unsampled run (probes are read-only), and (2) summing each sidecar
 * column reproduces the end-of-run aggregate exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "zbp/cpu/core_model.hh"
#include "zbp/obs/interval_sampler.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"

namespace zbp::obs
{
namespace
{

std::string
tempPath(const std::string &name, const char *ext)
{
    return ::testing::TempDir() + "zbp_obs_" + name + "_" +
           std::to_string(::getpid()) + ext;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** Extract `"key":<uint>` from a flat JSONL row (same tolerance the
 * runner's resume extractor uses). */
bool
extractU64(const std::string &line, const std::string &key,
           std::uint64_t &out)
{
    const std::string needle = "\"" + key + "\":";
    const auto at = line.find(needle);
    if (at == std::string::npos)
        return false;
    out = std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
    return true;
}

TEST(IntervalSampler, DeltasAreExactAndSumToAggregate)
{
    const auto path = tempPath("deltas", ".jsonl");
    std::uint64_t cycles = 0, hits = 0;
    {
        IntervalWriter w(path);
        IntervalSampler s(&w, 100);
        s.setIdentity("t0", "cfg", 0);
        s.addProbe("cycles", [&] { return cycles; });
        s.addProbe("hits", [&] { return hits; });

        cycles = 7; // pre-run state must land in the baseline, not row 0
        hits = 2;
        s.beginRun();
        EXPECT_EQ(s.nextAt(), 100u);

        cycles = 57;
        hits = 10;
        s.sample(100);
        EXPECT_EQ(s.nextAt(), 200u);

        cycles = 81;
        hits = 11;
        s.sample(200);

        cycles = 90; // final partial interval (35 insts)
        hits = 11;
        s.finish(235);
        EXPECT_EQ(w.rowsWritten(), 3u);
    }

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);

    std::uint64_t v = 0;
    ASSERT_TRUE(extractU64(lines[0], "cycles", v));
    EXPECT_EQ(v, 50u); // 57 - 7: baseline excluded
    ASSERT_TRUE(extractU64(lines[1], "cycles", v));
    EXPECT_EQ(v, 24u);
    ASSERT_TRUE(extractU64(lines[2], "cycles", v));
    EXPECT_EQ(v, 9u);
    ASSERT_TRUE(extractU64(lines[2], "insts", v));
    EXPECT_EQ(v, 35u);
    ASSERT_TRUE(extractU64(lines[2], "inst_end", v));
    EXPECT_EQ(v, 235u);

    std::uint64_t sum_cycles = 0, sum_hits = 0;
    for (const auto &l : lines) {
        ASSERT_TRUE(extractU64(l, "cycles", v));
        sum_cycles += v;
        ASSERT_TRUE(extractU64(l, "hits", v));
        sum_hits += v;
    }
    EXPECT_EQ(sum_cycles, cycles - 7);
    EXPECT_EQ(sum_hits, hits - 2);
    std::remove(path.c_str());
}

TEST(IntervalSampler, FinishWithoutPendingInstsEmitsNothingExtra)
{
    const auto path = tempPath("nopartial", ".jsonl");
    std::uint64_t c = 0;
    {
        IntervalWriter w(path);
        IntervalSampler s(&w, 10);
        s.setIdentity("t", "cfg", 0);
        s.addProbe("c", [&] { return c; });
        s.beginRun();
        c = 5;
        s.sample(10);
        s.finish(10); // boundary landed exactly: no partial row
        EXPECT_EQ(w.rowsWritten(), 1u);
    }
    std::remove(path.c_str());
}

TEST(IntervalWriter, CsvHeaderAndColumns)
{
    const auto path = tempPath("csv", ".csv");
    {
        IntervalWriter w(path);
        IntervalSampler s(&w, 50);
        s.setIdentity("trace-a", "base", 3);
        std::uint64_t x = 0;
        s.addProbe("x", [&] { return x; });
        s.beginRun();
        x = 9;
        s.sample(50);
        s.finish(50);
    }
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "trace,config,core,interval,inst_end,insts,x");
    EXPECT_EQ(lines[1], "trace-a,base,3,0,50,50,9");
    std::remove(path.c_str());
}

// ---- end-to-end: sampling a real CoreModel run ----------------------

trace::Trace
smallTrace()
{
    workload::BuildParams bp;
    bp.seed = 3;
    bp.numFunctions = 50;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.seed = 4;
    gp.length = 20'000;
    return workload::generateTrace(prog, gp, "obs-small");
}

TEST(IntervalSamplerIntegration, SamplingKeepsCountersBitIdentical)
{
    const trace::Trace t = smallTrace();
    const core::MachineParams cfg = sim::configBtb2();

    cpu::CoreModel plain(cfg);
    const cpu::SimResult ref = plain.run(t);

    const auto path = tempPath("bitident", ".jsonl");
    cpu::SimResult sampled;
    {
        IntervalWriter w(path);
        cpu::CoreModel m(cfg);
        m.attachObs(&w, 1000, "btb2");
        sampled = m.run(t);
    }

    EXPECT_EQ(cpu::counterMismatch(sampled, ref), "");
    std::remove(path.c_str());
}

TEST(IntervalSamplerIntegration, ColumnSumsReproduceEndOfRunAggregates)
{
    const trace::Trace t = smallTrace();
    const core::MachineParams cfg = sim::configBtb2();

    const auto path = tempPath("sums", ".jsonl");
    cpu::SimResult r;
    {
        IntervalWriter w(path);
        cpu::CoreModel m(cfg);
        m.attachObs(&w, 1000, "btb2");
        r = m.run(t);
    }

    const auto lines = readLines(path);
    ASSERT_GT(lines.size(), 10u); // 20k insts / 1k interval

    std::map<std::string, std::uint64_t> sums;
    const char *const kCols[] = {
        "cycles", "branches", "takenBranches", "correct", "icacheMisses",
        "btb1MissReports", "btb2RowReads", "btb2Transfers",
        "btb2FullSearches", "btb2PartialSearches", "predictions", "insts",
    };
    for (const auto &l : lines)
        for (const char *c : kCols) {
            std::uint64_t v = 0;
            ASSERT_TRUE(extractU64(l, c, v)) << "missing " << c;
            sums[c] += v;
        }

    EXPECT_EQ(sums["cycles"], r.cycles);
    EXPECT_EQ(sums["insts"], r.instructions);
    EXPECT_EQ(sums["branches"], r.branches);
    EXPECT_EQ(sums["takenBranches"], r.takenBranches);
    EXPECT_EQ(sums["correct"], r.correct);
    EXPECT_EQ(sums["icacheMisses"], r.icacheMisses);
    EXPECT_EQ(sums["btb1MissReports"], r.btb1MissReports);
    EXPECT_EQ(sums["btb2RowReads"], r.btb2RowReads);
    EXPECT_EQ(sums["btb2Transfers"], r.btb2Transfers);
    EXPECT_EQ(sums["btb2FullSearches"], r.btb2FullSearches);
    EXPECT_EQ(sums["btb2PartialSearches"], r.btb2PartialSearches);
    EXPECT_EQ(sums["predictions"], r.predictionsMade);
    std::remove(path.c_str());
}

} // namespace
} // namespace zbp::obs
