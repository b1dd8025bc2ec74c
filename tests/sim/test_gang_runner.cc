/**
 * @file
 * Tests for gang-chunked sweep execution.  The load-bearing property is
 * bit-identity: interleaving N configurations over one trace in chunks
 * of any size must produce exactly the results of N independent serial
 * runs — same cycles, same outcome taxonomy, same machinery counters.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "zbp/sim/gang_runner.hh"
#include "zbp/sim/simulator.hh"

namespace zbp::sim
{
namespace
{

std::vector<GangConfig>
fig2Gang()
{
    return {{"config1", configNoBtb2()},
            {"config2", configBtb2()},
            {"config3", configLargeBtb1()}};
}

std::vector<trace::TraceHandle>
smallTraces()
{
    std::vector<trace::TraceHandle> out;
    for (const char *name : {"cb84", "tpf"})
        out.push_back(workload::suiteTraceHandle(
                workload::findSuite(name), 0.01));
    return out;
}

TEST(GangRunner, BitIdenticalToSerialAcrossChunkSizes)
{
    const auto traces = smallTraces();
    const auto gang = fig2Gang();

    // Serial reference: independent full runs.
    std::vector<std::vector<cpu::SimResult>> ref(gang.size());
    for (std::size_t ci = 0; ci < gang.size(); ++ci)
        for (const auto &t : traces)
            ref[ci].push_back(runOne(gang[ci].cfg, *t));

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{1000},
                                    std::size_t{1} << 30}) {
        const auto got = runGangs(
                runner::RunPolicy{.workers = 1, .chunk = chunk}, gang,
                traces);
        ASSERT_EQ(got.size(), gang.size());
        for (std::size_t ci = 0; ci < gang.size(); ++ci) {
            ASSERT_EQ(got[ci].size(), traces.size());
            for (std::size_t ti = 0; ti < traces.size(); ++ti) {
                ASSERT_TRUE(got[ci][ti].ok)
                        << got[ci][ti].error << " (chunk " << chunk
                        << ")";
                EXPECT_EQ(cpu::counterMismatch(got[ci][ti].result,
                                               ref[ci][ti]),
                          "");
                EXPECT_EQ(got[ci][ti].result.traceName,
                          ref[ci][ti].traceName);
            }
        }
    }
}

TEST(GangRunner, FailingMemberDoesNotSinkTheGang)
{
    auto gang = fig2Gang();
    gang[1].name = "broken";
    gang[1].cfg.btb1.rows = 3; // not a power of two: ctor rejects

    const auto traces = smallTraces();
    const auto got = runGangs(runner::RunPolicy{.workers = 1}, gang, traces);

    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        EXPECT_TRUE(got[0][ti].ok) << got[0][ti].error;
        EXPECT_TRUE(got[2][ti].ok) << got[2][ti].error;
        EXPECT_FALSE(got[1][ti].ok);
        EXPECT_NE(got[1][ti].error.find("power of two"),
                  std::string::npos)
                << got[1][ti].error;
    }

    // The gang's own outcome is not ok: it names the failed member's
    // error, while the healthy members' results stand.
    runner::GangJob job(gang, traces[0].get());
    const auto out = runner::JobRunner(runner::RunPolicy{.workers = 1})
                             .run({&job});
    EXPECT_FALSE(out[0].ok);
    EXPECT_NE(out[0].error.find("power of two"), std::string::npos)
            << out[0].error;
    EXPECT_TRUE(job.results()[0].ok);
    EXPECT_TRUE(job.results()[2].ok);
}

TEST(GangRunner, WritesOneRecordPerConfigTracePair)
{
    const std::string path =
            testing::TempDir() + "gang_records.jsonl";
    std::remove(path.c_str());

    const auto traces = smallTraces();
    const auto fresh = runGangs(runner::RunPolicy{.workers = 1,
                                                  .sinkPath = path},
                                fig2Gang(), traces);

    std::ifstream in(path);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, 3 * traces.size());

    // The records resume losslessly: every cell is satisfied from them
    // and equals the fresh run on every counter and the CPI bits.
    const auto got = runGangs(runner::RunPolicy{.workers = 1,
                                                .resumePath = path},
                              fig2Gang(), traces);
    for (std::size_t ci = 0; ci < got.size(); ++ci) {
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            ASSERT_TRUE(got[ci][ti].ok) << got[ci][ti].error;
            EXPECT_TRUE(got[ci][ti].resumed);
            EXPECT_EQ(cpu::counterMismatch(got[ci][ti].result,
                                           fresh[ci][ti].result),
                      "");
            EXPECT_EQ(got[ci][ti].result.traceName,
                      fresh[ci][ti].result.traceName);
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace zbp::sim
