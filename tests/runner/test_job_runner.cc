/**
 * @file
 * Tests for the simulation job runner: the parallel-equals-serial
 * determinism guarantee, exception isolation within a sweep, seed
 * derivation, and progress accounting.
 */

#include <cstdio>
#include <fstream>
#include <regex>

#include <gtest/gtest.h>

#include "zbp/runner/job_runner.hh"
#include "zbp/sim/configs.hh"
#include "zbp/trace/trace_io.hh"
#include "zbp/workload/suites.hh"

namespace zbp::runner
{
namespace
{

std::vector<trace::Trace>
smallTraces()
{
    std::vector<trace::Trace> v;
    v.push_back(workload::makeSuiteTrace(workload::findSuite("cb84"),
                                         0.01));
    v.push_back(workload::makeSuiteTrace(workload::findSuite("tpf"),
                                         0.01));
    return v;
}

std::vector<SimJob>
crossJobs(const std::vector<trace::Trace> &traces)
{
    std::vector<SimJob> jobs;
    for (const auto &t : traces) {
        jobs.push_back(SimJob("no-btb2", sim::configNoBtb2(), &t));
        jobs.push_back(SimJob("btb2", sim::configBtb2(), &t));
        jobs.push_back(SimJob("large-btb1", sim::configLargeBtb1(), &t));
    }
    return jobs;
}

TEST(JobRunner, ParallelIsBitIdenticalToSerial)
{
    const auto traces = smallTraces();
    const auto jobs = crossJobs(traces); // 6 jobs

    JobRunner serial(RunPolicy{.workers = 1});
    auto a = serial.run(jobs);

    JobRunner parallel(RunPolicy{.workers = 8});
    auto b = parallel.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << "serial job " << i << ": " << a[i].error;
        ASSERT_TRUE(b[i].ok) << "parallel job " << i << ": "
                             << b[i].error;
        EXPECT_EQ(cpu::counterMismatch(a[i].result, b[i].result), "");
        EXPECT_EQ(a[i].result.traceName, b[i].result.traceName);
        EXPECT_EQ(a[i].result.statsText, b[i].result.statsText);
    }
}

TEST(JobRunner, OneFailingJobDoesNotPoisonTheSweep)
{
    const auto traces = smallTraces();
    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("ok-1", sim::configNoBtb2(), &traces[0]));
    jobs.push_back(SimJob("broken", sim::configNoBtb2(), nullptr));
    jobs.push_back(SimJob("ok-2", sim::configBtb2(), &traces[1]));

    JobRunner jr(RunPolicy{.workers = 4});
    const auto res = jr.run(jobs);
    ASSERT_EQ(res.size(), 3u);
    EXPECT_TRUE(res[0].ok);
    EXPECT_FALSE(res[1].ok);
    EXPECT_NE(res[1].error.find("no trace"), std::string::npos);
    EXPECT_TRUE(res[2].ok);
    EXPECT_GT(res[0].result.cycles, 0u);
    EXPECT_GT(res[2].result.cycles, 0u);
}

TEST(JobRunner, ProgressReportsEveryJobWithTiming)
{
    const auto traces = smallTraces();
    const auto jobs = crossJobs(traces);

    std::vector<ProgressMeter::Event> events;
    RunPolicy policy{.workers = 4};
    policy.progress = [&](const ProgressMeter::Event &e) {
        events.push_back(e); // serialised by the meter's lock
    };
    JobRunner(policy).run(jobs);

    ASSERT_EQ(events.size(), jobs.size());
    for (const auto &e : events) {
        EXPECT_EQ(e.total, jobs.size());
        EXPECT_GE(e.done, 1u);
        EXPECT_LE(e.done, jobs.size());
        EXPECT_GE(e.jobSeconds, 0.0);
        EXPECT_GE(e.etaSeconds, 0.0);
        EXPECT_NE(e.label.find('/'), std::string::npos);
    }
    EXPECT_EQ(events.back().done, jobs.size());
    EXPECT_EQ(events.back().etaSeconds, 0.0);
}

TEST(JobRunner, NullTraceFailureNamesTheCause)
{
    // Regression: a job with neither a trace pointer nor a trace path
    // must come back as a captured failure with a message naming the
    // null trace — never a crash.
    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("broken", sim::configNoBtb2(), nullptr));
    JobRunner jr(RunPolicy{.workers = 1});
    const auto res = jr.run(jobs);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_NE(res[0].error.find("no trace"), std::string::npos)
            << res[0].error;
    EXPECT_NE(res[0].error.find("null trace pointer"), std::string::npos)
            << res[0].error;
    EXPECT_EQ(res[0].attempts, 1u);
}

TEST(JobRunner, TracePathJobMatchesInMemoryRun)
{
    const auto traces = smallTraces();
    const std::string path =
            ::testing::TempDir() + "/zbp_jr_path.zbpt";
    trace::saveTraceFile(traces[0], path);

    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("mem", sim::configBtb2(), &traces[0]));
    SimJob byPath;
    byPath.configName = "mem"; // same config name => same derived seed
    byPath.cfg = sim::configBtb2();
    byPath.tracePath = path;
    byPath.seed = JobRunner::deriveSeed("mem", traces[0].name());
    jobs.push_back(byPath);

    JobRunner jr(RunPolicy{.workers = 1});
    const auto res = jr.run(jobs);
    std::remove(path.c_str());
    ASSERT_EQ(res.size(), 2u);
    ASSERT_TRUE(res[0].ok) << res[0].error;
    ASSERT_TRUE(res[1].ok) << res[1].error;
    EXPECT_EQ(cpu::counterMismatch(res[0].result, res[1].result), "");
    EXPECT_EQ(res[0].result.traceName, res[1].result.traceName);
    EXPECT_EQ(res[0].result.statsText, res[1].result.statsText);
}

TEST(JobRunner, MissingTracePathRetriesThenFails)
{
    SimJob job;
    job.configName = "gone";
    job.cfg = sim::configNoBtb2();
    job.tracePath = "/nonexistent/dir/x.zbpt";
    JobRunner jr(RunPolicy{.workers = 1, .retries = 2});
    const auto res = jr.run({job});
    ASSERT_EQ(res.size(), 1u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_EQ(res[0].attempts, 3u); // open errors are retryable
    EXPECT_NE(res[0].error.find("cannot open"), std::string::npos)
            << res[0].error;
}

TEST(JobRunner, CorruptTraceFailsOnceWithDescriptiveError)
{
    const std::string path =
            ::testing::TempDir() + "/zbp_jr_corrupt.zbpt";
    {
        std::ofstream os(path, std::ios::binary);
        os << "this is not a trace file";
    }
    SimJob job;
    job.configName = "corrupt";
    job.cfg = sim::configNoBtb2();
    job.tracePath = path;
    JobRunner jr(RunPolicy{.workers = 1, .retries = 3});
    const auto res = jr.run({job});
    std::remove(path.c_str());
    ASSERT_EQ(res.size(), 1u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_EQ(res[0].attempts, 1u); // corrupt bytes stay corrupt
    EXPECT_NE(res[0].error.find("magic"), std::string::npos)
            << res[0].error;
}

TEST(JobRunner, ResumeSkipsCompletedJobsAndWritesNoNewRecords)
{
    const auto traces = smallTraces();
    const auto jobs = crossJobs(traces); // 6 jobs
    const std::string first =
            ::testing::TempDir() + "/zbp_jr_resume_first.jsonl";
    const std::string second =
            ::testing::TempDir() + "/zbp_jr_resume_second.jsonl";
    std::remove(first.c_str());
    std::remove(second.c_str());

    JobRunner a(RunPolicy{.workers = 2, .sinkPath = first});
    const auto r1 = a.run(jobs);
    for (const auto &r : r1)
        ASSERT_TRUE(r.ok) << r.error;

    JobRunner b(RunPolicy{
            .workers = 2, .sinkPath = second, .resumePath = first});
    const auto r2 = b.run(jobs);
    ASSERT_EQ(r2.size(), r1.size());
    for (std::size_t i = 0; i < r2.size(); ++i) {
        EXPECT_TRUE(r2[i].resumed) << i;
        ASSERT_TRUE(r2[i].ok) << i;
        // Lossless: every counter and the CPI bits come back.
        EXPECT_EQ(cpu::counterMismatch(r2[i].result, r1[i].result), "")
                << i;
        EXPECT_EQ(r2[i].result.traceName, r1[i].result.traceName) << i;
    }

    // Everything was satisfied from the checkpoint: the second sink
    // must contain zero records.
    std::ifstream is(second);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line))
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, 0u);
    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST(JobRunner, ResumeReRunsFailedJobs)
{
    const auto traces = smallTraces();
    const std::string first =
            ::testing::TempDir() + "/zbp_jr_resume_fail.jsonl";
    std::remove(first.c_str());

    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("good", sim::configNoBtb2(), &traces[0]));
    jobs.push_back(SimJob("bad", sim::configNoBtb2(), nullptr));

    JobRunner a(RunPolicy{.workers = 1, .sinkPath = first});
    const auto r1 = a.run(jobs);
    ASSERT_TRUE(r1[0].ok);
    ASSERT_FALSE(r1[1].ok);

    // Fix the broken job, resume: the good job is skipped, the fixed
    // one actually executes.
    jobs[1].trace = &traces[1];
    JobRunner b(RunPolicy{.workers = 1, .resumePath = first});
    const auto r2 = b.run(jobs);
    std::remove(first.c_str());
    EXPECT_TRUE(r2[0].resumed);
    EXPECT_FALSE(r2[1].resumed);
    ASSERT_TRUE(r2[1].ok) << r2[1].error;
    EXPECT_GT(r2[1].result.cycles, 0u);
}

TEST(JobRunner, ResumeReRunsRecordsOfAnOlderSchema)
{
    const auto traces = smallTraces();
    const auto jobs = crossJobs(traces);
    const std::string fresh =
            ::testing::TempDir() + "/zbp_jr_resume_schema_fresh.jsonl";
    const std::string old =
            ::testing::TempDir() + "/zbp_jr_resume_schema_old.jsonl";
    std::remove(fresh.c_str());

    JobRunner a(RunPolicy{.workers = 2, .sinkPath = fresh});
    const auto r1 = a.run(jobs);

    // Rewrite every record in the earlier 20-counter format: the same
    // line without the four counters that format did not export.
    {
        std::ifstream in(fresh);
        std::ofstream out(old, std::ios::trunc);
        const std::regex dropped(
                ",\"(dataAccesses|btb2FullSearches|btb2PartialSearches|"
                "watchdogResets)\":[0-9]+");
        for (std::string line; std::getline(in, line);)
            out << std::regex_replace(line, dropped, "") << '\n';
    }
    EXPECT_EQ(ResumeIndex(old).size(), 0u);

    // No record is applied with zeroed counters: every job re-runs and
    // matches its fresh result.
    JobRunner b(RunPolicy{.workers = 2, .resumePath = old});
    const auto r2 = b.run(jobs);
    for (std::size_t i = 0; i < r2.size(); ++i) {
        EXPECT_FALSE(r2[i].resumed) << i;
        ASSERT_TRUE(r2[i].ok) << r2[i].error;
        EXPECT_EQ(cpu::counterMismatch(r2[i].result, r1[i].result), "")
                << i;
    }
    std::remove(fresh.c_str());
    std::remove(old.c_str());
}

TEST(JobRunner, SeedDerivationIsStableAndIdentityBased)
{
    const auto s1 = JobRunner::deriveSeed("btb2", "cb84");
    EXPECT_EQ(s1, JobRunner::deriveSeed("btb2", "cb84"));
    EXPECT_NE(s1, JobRunner::deriveSeed("btb2", "tpf"));
    EXPECT_NE(s1, JobRunner::deriveSeed("no-btb2", "cb84"));
    // The separator keeps ("ab","c") distinct from ("a","bc").
    EXPECT_NE(JobRunner::deriveSeed("ab", "c"),
              JobRunner::deriveSeed("a", "bc"));
}

// ---- the resume file: the one JSON input read from outside ---------

/** A record whose identity and counters stress the reader: quotes,
 * backslashes and every control byte in the names, an all-ones seed,
 * and counters above a double's 2^53. */
struct HostileRecord
{
    trace::Trace t{std::string("tr\"a\\ce") + "\x01\x1f\n\t"};
    SimJob job;
    SimJobResult r;

    HostileRecord()
    {
        std::string config = "cfg \"q\" \\ ";
        for (char c = 0x01; c < 0x20; ++c)
            config += c;
        job = SimJob(config, sim::configNoBtb2(), &t,
                     0xFFFFFFFFFFFFFFFFull);
        r.ok = true;
        r.seconds = 0.125;
        r.attempts = 2;
        r.result.traceName = t.name();
        std::uint64_t v = (1ull << 53) + 1;
        for (const cpu::SimCounter &c : cpu::kSimCounters)
            r.result.*c.member = v += 0x10000000001ull;
        r.result.faultsInjected = 0xFFFFFFFFFFFFFFFFull;
        r.result.cpi = 1.0 / 3.0;
    }
};

/** How many results the single JSONL line @p line restores. */
std::size_t
restoredFromLine(const std::string &line)
{
    auto rec = json::parse(line);
    if (!rec)
        return 0;
    return ResumeIndex(std::vector<json::Value>{std::move(*rec)}).size();
}

TEST(ResumeRecord, HostileNamesSeedAndLargeCountersRoundTrip)
{
    const HostileRecord h;
    const std::string path =
            ::testing::TempDir() + "/zbp_resume_hostile.jsonl";
    {
        std::ofstream os(path, std::ios::trunc);
        os << jobRecord(h.job, h.r) << '\n';
    }
    const ResumeIndex prior(path);
    std::remove(path.c_str());
    ASSERT_EQ(prior.size(), 1u);
    const SimJobResult *r = prior.result(simJobId(h.job));
    ASSERT_NE(r, nullptr) << "identity did not survive the record";
    EXPECT_TRUE(r->resumed);
    EXPECT_EQ(cpu::counterMismatch(r->result, h.r.result), "");
    EXPECT_EQ(r->result.traceName, h.t.name());
    EXPECT_EQ(r->seconds, h.r.seconds);
    EXPECT_EQ(r->attempts, h.r.attempts);
}

TEST(ResumeRecord, EveryTruncationIsNeverApplied)
{
    const HostileRecord h;
    const std::string line = jobRecord(h.job, h.r);
    ASSERT_EQ(restoredFromLine(line), 1u);
    for (std::size_t n = 0; n < line.size(); ++n)
        EXPECT_EQ(restoredFromLine(line.substr(0, n)), 0u) << n;
}

TEST(ResumeRecord, EverySingleByteCorruptionParsesOrIsRejected)
{
    const HostileRecord h;
    const std::string line = jobRecord(h.job, h.r);
    std::vector<json::Value> parsed;
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
        for (const char b : {'\0', '\x1f', '"', '\\', '{', '}', ',', ':',
                             '9', 'u', '\x7f', '\xff'}) {
            std::string bad = line;
            bad[i] = b;
            // Out-of-range reads are the sanitizer's to catch.
            if (auto rec = json::parse(bad))
                parsed.push_back(std::move(*rec));
            else
                ++rejected;
        }
    }
    EXPECT_GT(rejected, 0u);
    // A corruption that still parses and still carries the full schema
    // can change at most the one value it hit — never zero the rest.
    for (json::Value &rec : parsed) {
        const std::string *config = rec["config"].str();
        const std::string *trace = rec["trace"].str();
        const auto seed = rec["seed"].u64();
        if (config == nullptr || trace == nullptr || !seed)
            continue; // no identity: never restored
        const RecordId id{*config, *trace, *seed};
        const ResumeIndex one(std::vector<json::Value>{std::move(rec)});
        const SimJobResult *r = one.result(id);
        if (r == nullptr)
            continue;
        std::size_t differing = 0;
        for (const cpu::SimCounter &c : cpu::kSimCounters)
            differing += r->result.*c.member != h.r.result.*c.member;
        EXPECT_LE(differing, 1u) << id.key();
    }
}

} // namespace
} // namespace zbp::runner
