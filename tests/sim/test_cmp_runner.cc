/**
 * @file
 * Tests for CmpRunner: the JSONL record scheme (N per-core records,
 * byte-compatible with runner::jobRecord, plus one ok=false sharing
 * record per job), all-or-nothing resume with sharing-stats restore,
 * and the naming/env helpers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "zbp/sim/cmp/cmp_runner.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/suites.hh"

namespace zbp::sim
{
namespace
{

std::vector<trace::TraceHandle>
smallTraces()
{
    std::vector<trace::TraceHandle> out;
    for (const char *name : {"cb84", "tpf"})
        out.push_back(workload::suiteTraceHandle(
                workload::findSuite(name), 0.01));
    return out;
}

CmpJob
twoCoreJob(const std::string &name,
           const std::vector<trace::TraceHandle> &traces)
{
    CmpJob job;
    job.name = name;
    job.cfg = configBtb2();
    job.cfg.cmp.cores = 2;
    job.cfg.cmp.btb2Banks = 2;
    job.traces = {traces[0], traces[1]};
    return job;
}

std::vector<std::string>
fileLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(CmpRunner, NamingHelpers)
{
    EXPECT_EQ(cmpCoreConfigName("mix", 0), "mix#c0");
    EXPECT_EQ(cmpCoreConfigName("mix", 3), "mix#c3");
    EXPECT_EQ(cmpSharedConfigName("mix"), "mix#shared");
    const auto traces = smallTraces();
    EXPECT_EQ(cmpTraceMixId(traces),
              traces[0]->name() + "+" + traces[1]->name());
}

TEST(CmpRunner, EnvKnobs)
{
    ::unsetenv("ZBP_CMP_CORES");
    EXPECT_EQ(cmpCoresFromEnv(), 0u);
    ::setenv("ZBP_CMP_CORES", "4", 1);
    EXPECT_EQ(cmpCoresFromEnv(), 4u);
    ::unsetenv("ZBP_CMP_CORES");

    ::unsetenv("ZBP_CMP_ARB");
    EXPECT_EQ(cmpArbPolicyFromEnv(preload::ArbPolicy::kFcfs),
              preload::ArbPolicy::kFcfs);
    ::setenv("ZBP_CMP_ARB", "tdm", 1);
    EXPECT_EQ(cmpArbPolicyFromEnv(preload::ArbPolicy::kFcfs),
              preload::ArbPolicy::kTdm);
    ::unsetenv("ZBP_CMP_ARB");
}

TEST(CmpRunner, WritesPerCoreAndSharingRecords)
{
    const std::string path = testing::TempDir() + "cmp_records.jsonl";
    std::remove(path.c_str());

    const auto traces = smallTraces();
    CmpRunner cr(runner::RunPolicy{.workers = 1, .sinkPath = path});
    const auto res = cr.run({twoCoreJob("mixA", traces)});
    ASSERT_EQ(res.size(), 1u);
    ASSERT_TRUE(res[0].ok) << res[0].error;
    EXPECT_FALSE(res[0].resumed);
    ASSERT_EQ(res[0].result.core.size(), 2u);

    const auto lines = fileLines(path);
    ASSERT_EQ(lines.size(), 3u); // 2 per-core + 1 sharing
    std::size_t perCore = 0, sharing = 0;
    for (const auto &l : lines) {
        if (l.find("\"config\":\"mixA#shared\"") != std::string::npos) {
            ++sharing;
            EXPECT_NE(l.find("\"ok\":false"), std::string::npos) << l;
            EXPECT_NE(l.find("\"cmp\":true"), std::string::npos) << l;
            EXPECT_NE(l.find("\"arbRequests\":"), std::string::npos) << l;
        } else {
            ++perCore;
            EXPECT_NE(l.find("\"config\":\"mixA#c"), std::string::npos)
                    << l;
            EXPECT_NE(l.find("\"ok\":true"), std::string::npos) << l;
            EXPECT_NE(l.find("\"cycles\":"), std::string::npos) << l;
        }
    }
    EXPECT_EQ(perCore, 2u);
    EXPECT_EQ(sharing, 1u);
    std::remove(path.c_str());
}

TEST(CmpRunner, ResumeSatisfiesJobAndRestoresSharingStats)
{
    const std::string first = testing::TempDir() + "cmp_first.jsonl";
    const std::string second = testing::TempDir() + "cmp_second.jsonl";
    std::remove(first.c_str());
    std::remove(second.c_str());

    const auto traces = smallTraces();
    const auto job = twoCoreJob("mixR", traces);

    CmpRunner cr(runner::RunPolicy{.workers = 1, .sinkPath = first});
    const auto ref = cr.run({job});
    ASSERT_TRUE(ref[0].ok) << ref[0].error;

    CmpRunner resumer(runner::RunPolicy{
            .workers = 1, .sinkPath = second, .resumePath = first});
    const auto got = resumer.run({job});
    ASSERT_TRUE(got[0].ok) << got[0].error;
    EXPECT_TRUE(got[0].resumed);

    // Nothing re-ran, nothing re-written.
    EXPECT_TRUE(fileLines(second).empty());

    // Every per-core counter, the CPI bits and every sharing counter
    // (per-core and per-bank vectors included) survive the JSONL round
    // trip.
    EXPECT_EQ(cmpMismatch(got[0].result, ref[0].result), "");

    // A partial checkpoint (one per-core record, or the sharing record,
    // missing) must NOT satisfy the job: resume is all-or-nothing.
    const std::string partial = testing::TempDir() + "cmp_partial.jsonl";
    for (const char *dropped : {"\"config\":\"mixR#c1\"",
                                "\"config\":\"mixR#shared\""}) {
        SCOPED_TRACE(dropped);
        {
            std::ofstream out(partial, std::ios::trunc);
            for (const auto &l : fileLines(first))
                if (l.find(dropped) == std::string::npos)
                    out << l << '\n';
        }
        CmpRunner partialRunner(
                runner::RunPolicy{.workers = 1, .resumePath = partial});
        const auto rerun = partialRunner.run({job});
        ASSERT_TRUE(rerun[0].ok) << rerun[0].error;
        EXPECT_FALSE(rerun[0].resumed);
        EXPECT_EQ(cmpMismatch(rerun[0].result, ref[0].result), "");
    }

    std::remove(first.c_str());
    std::remove(second.c_str());
    std::remove(partial.c_str());
}

TEST(CmpRunner, FailingJobIsRecordedNotFatal)
{
    const auto traces = smallTraces();
    auto good = twoCoreJob("good", traces);
    auto bad = twoCoreJob("bad", traces);
    bad.cfg.btb1.rows = 3; // not a power of two: ctor rejects

    CmpRunner cr(runner::RunPolicy{.workers = 1});
    const auto res = cr.run({bad, good});
    ASSERT_EQ(res.size(), 2u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_NE(res[0].error.find("power of two"), std::string::npos)
            << res[0].error;
    EXPECT_TRUE(res[1].ok) << res[1].error;
}

} // namespace
} // namespace zbp::sim
