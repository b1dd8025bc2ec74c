/**
 * @file
 * Tests for the JSONL results sink: JSON encoding/escaping, append
 * semantics, and a full round trip — run a sharded sweep with the sink
 * attached, parse the file back, and match the records against the
 * in-memory results.
 */

#include <cstdio>
#include <fstream>

#include <unistd.h>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/runner/job_runner.hh"
#include "zbp/runner/jsonl_sink.hh"
#include "zbp/sim/configs.hh"
#include "zbp/util/json.hh"
#include "zbp/workload/suites.hh"

namespace zbp::runner
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "zbp_" + name + "_" +
           std::to_string(::getpid()) + ".jsonl";
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Parse one record line; an unparsable line fails the test. */
json::Value
parseRecord(const std::string &line)
{
    auto rec = json::parse(line);
    EXPECT_TRUE(rec) << "not valid JSON: " << line;
    return rec ? *rec : json::Value{};
}

TEST(JsonObject, BuildsOrderedFields)
{
    JsonObject o;
    o.field("s", "hi").field("d", 1.5).field("u", std::uint64_t{42});
    o.field("b", true);
    EXPECT_EQ(o.str(), "{\"s\":\"hi\",\"d\":1.5,\"u\":42,\"b\":true}");
}

TEST(JsonObject, EscapesQuotesBackslashesAndControls)
{
    JsonObject o;
    o.field("k", std::string("a\"b\\c\nd"));
    EXPECT_EQ(o.str(), "{\"k\":\"a\\\"b\\\\c\\u000ad\"}");
}

TEST(JsonlSink, DisabledSinkWritesNothing)
{
    JsonlSink sink("");
    EXPECT_FALSE(sink.enabled());
    sink.write("{\"x\":1}"); // must be a harmless no-op
    EXPECT_EQ(sink.linesWritten(), 0u);
}

TEST(JsonlSink, AppendsOneLinePerRecord)
{
    const auto path = tempPath("append");
    std::remove(path.c_str());
    {
        JsonlSink sink(path);
        ASSERT_TRUE(sink.enabled());
        sink.write("{\"x\":1}");
        sink.write("{\"x\":2}");
        EXPECT_EQ(sink.linesWritten(), 2u);
    }
    {
        // Re-opening appends rather than truncating.
        JsonlSink sink(path);
        sink.write("{\"x\":3}");
    }
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "{\"x\":1}");
    EXPECT_EQ(lines[2], "{\"x\":3}");
    std::remove(path.c_str());
}

TEST(JsonlSink, SweepRoundTripMatchesInMemoryResults)
{
    const auto path = tempPath("roundtrip");
    std::remove(path.c_str());

    const auto trace = workload::makeSuiteTrace(
            workload::findSuite("cb84"), 0.01);
    std::vector<SimJob> jobs;
    jobs.push_back({"no-btb2", sim::configNoBtb2(), &trace});
    jobs.push_back({"btb2", sim::configBtb2(), &trace});
    jobs.push_back({"broken", sim::configBtb2(), nullptr});

    JobRunner jr(RunPolicy{.workers = 4, .sinkPath = path});
    const auto res = jr.run(jobs);

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), jobs.size()); // one record per job

    // Records are written in completion order; index them by config.
    std::map<std::string, json::Value> byConfig;
    for (const auto &line : lines) {
        auto rec = parseRecord(line);
        byConfig[rec["config"].text] = rec;
    }
    ASSERT_EQ(byConfig.size(), 3u);

    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(res[i].ok);
        const auto &rec = byConfig.at(jobs[i].configName);
        EXPECT_EQ(rec["trace"].text, "cb84");
        EXPECT_EQ(rec["ok"].boolean(), true);
        for (const cpu::SimCounter &c : cpu::kSimCounters)
            EXPECT_EQ(rec[c.name].u64(), res[i].result.*c.member)
                    << c.name;
        // cpi survives the %.17g round trip exactly.
        EXPECT_EQ(rec["cpi"].num(), res[i].result.cpi);
        EXPECT_GE(rec["seconds"].num().value_or(-1.0), 0.0);
    }

    const auto &bad = byConfig.at("broken");
    EXPECT_EQ(bad["ok"].boolean(), false);
    EXPECT_EQ(bad["trace"].text, "<null>");
    EXPECT_NE(bad["error"].text.find("no trace"), std::string::npos);
    EXPECT_EQ(bad.find("cpi"), nullptr); // no result fields on failures
    std::remove(path.c_str());
}

TEST(JsonlSink, JobRecordContainsTheCounterSchema)
{
    SimJob job;
    job.configName = "cfg";
    trace::Trace t("tr");
    job.trace = &t;
    job.seed = 7;
    SimJobResult r;
    r.ok = true;
    r.seconds = 0.25;
    r.result.cpi = 1.5;
    r.result.cycles = 300;
    r.result.instructions = 200;
    const auto rec = parseRecord(jobRecord(job, r));
    for (const char *key :
         {"trace", "config", "seed", "ok", "seconds", "cpi"})
        EXPECT_NE(rec.find(key), nullptr) << "missing field " << key;
    for (const cpu::SimCounter &c : cpu::kSimCounters)
        EXPECT_NE(rec.find(c.name), nullptr) << "missing field " << c.name;
    EXPECT_EQ(rec["seed"].u64(), 7u);
    EXPECT_EQ(rec["cycles"].u64(), 300u);
}

} // namespace
} // namespace zbp::runner
