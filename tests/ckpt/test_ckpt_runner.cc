/**
 * @file
 * Checkpoint/restore across the job kinds: a planted mid-trace snapshot
 * resumes a single job / gang / CMP job to the exact counters of an
 * uninterrupted run, a corrupt snapshot degrades to a from-scratch
 * re-run, and torn trailing JSONL lines are skipped on resume.  The
 * SIGKILL crash-recovery contract is exercised for every job kind in
 * tests/runner/test_chaos.cc.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/runner/job_runner.hh"
#include "zbp/sim/cmp/cmp_model.hh"
#include "zbp/sim/cmp/cmp_runner.hh"
#include "zbp/sim/configs.hh"
#include "zbp/sim/gang_runner.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"
#include "zbp/workload/suites.hh"

namespace zbp::runner
{
namespace
{

namespace fs = std::filesystem;

/** A fresh empty checkpoint directory under the test tmpdir. */
std::string
freshCkptDir(const std::string &leaf)
{
    const std::string dir = ::testing::TempDir() + "/" + leaf;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::size_t
ckptFilesIn(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".ckpt")
            ++n;
    return n;
}

trace::Trace
midTrace(const char *name, std::uint64_t length)
{
    workload::BuildParams bp;
    bp.seed = 31;
    bp.numFunctions = 100;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.seed = 32;
    gp.length = length;
    return workload::generateTrace(prog, gp, name);
}

/** Plant a mid-run snapshot of @p job exactly where the engine would
 * look for it. */
std::string
plantJobCheckpoint(const std::string &dir, const SimJob &job,
                   std::size_t at)
{
    GangJob gang(job);
    const std::string path = gang.identity().ckptPath(dir);
    gang.begin(nullptr);
    gang.advance(at);
    ckpt::Writer w;
    EXPECT_TRUE(gang.save(w));
    w.finish();
    EXPECT_TRUE(ckpt::saveCkptFile(path, w));
    return path;
}

TEST(CkptRunner, JobRunnerResumesMidTraceFromPlantedCheckpoint)
{
    const auto t = midTrace("ckpt-job", 60'000);
    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("ck-job", sim::configBtb2(), &t));

    JobRunner plain(RunPolicy{.workers = 1});
    const auto golden = plain.run(jobs);
    ASSERT_TRUE(golden[0].ok) << golden[0].error;

    const std::string dir = freshCkptDir("zbp_ckpt_job");
    const std::string path = plantJobCheckpoint(dir, jobs[0], t.size() / 2);
    ASSERT_TRUE(ckpt::ckptFileExists(path));

    JobRunner resumed(RunPolicy{.workers = 1, .ckptDir = dir});
    const auto got = resumed.run(jobs);
    ASSERT_TRUE(got[0].ok) << got[0].error;
    EXPECT_EQ(cpu::counterMismatch(golden[0].result, got[0].result), "");
    // The consumed snapshot must not satisfy a future resume.
    EXPECT_FALSE(ckpt::ckptFileExists(path));
}

TEST(CkptRunner, JobRunnerDiscardsCorruptCheckpointAndRecomputes)
{
    const auto t = midTrace("ckpt-corrupt", 40'000);
    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("ck-corrupt", sim::configBtb2(), &t));

    JobRunner plain(RunPolicy{.workers = 1});
    const auto golden = plain.run(jobs);
    ASSERT_TRUE(golden[0].ok) << golden[0].error;

    const std::string dir = freshCkptDir("zbp_ckpt_corrupt");
    const std::string path = plantJobCheckpoint(dir, jobs[0], t.size() / 2);

    // Flip a byte deep inside the snapshot body.
    auto bytes = ckpt::loadCkptFile(path);
    ASSERT_GT(bytes.size(), 200u);
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.close();

    JobRunner resumed(RunPolicy{.workers = 1, .ckptDir = dir});
    const auto got = resumed.run(jobs);
    ASSERT_TRUE(got[0].ok) << got[0].error;
    EXPECT_EQ(cpu::counterMismatch(golden[0].result, got[0].result), "");
    EXPECT_FALSE(ckpt::ckptFileExists(path));
}

TEST(CkptRunner, JobRunnerPeriodicCheckpointingIsInvisibleInResults)
{
    const auto t = midTrace("ckpt-periodic", 50'000);
    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("ck-per-a", sim::configNoBtb2(), &t));
    jobs.push_back(SimJob("ck-per-b", sim::configBtb2(), &t));

    JobRunner plain(RunPolicy{.workers = 2});
    const auto golden = plain.run(jobs);

    const std::string dir = freshCkptDir("zbp_ckpt_periodic");
    JobRunner ck(RunPolicy{
            .workers = 2, .ckptDir = dir, .ckptInterval = 7000});
    const auto got = ck.run(jobs);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        SCOPED_TRACE(j);
        ASSERT_TRUE(got[j].ok) << got[j].error;
        EXPECT_EQ(cpu::counterMismatch(golden[j].result, got[j].result), "");
    }
    // Completed jobs consume their snapshots.
    EXPECT_EQ(ckptFilesIn(dir), 0u);
}

TEST(CkptRunner, GangRunnerResumesFromPlantedGangCheckpoint)
{
    const auto t = midTrace("ckpt-gang", 50'000);
    const std::vector<sim::GangConfig> gang = {
        {"gg1", sim::configNoBtb2()},
        {"gg2", sim::configBtb2()},
    };
    const std::vector<trace::TraceHandle> traces = {trace::borrowTrace(t)};

    const auto golden = sim::runGangs(RunPolicy{.workers = 1}, gang, traces);
    ASSERT_TRUE(golden[0][0].ok);
    ASSERT_TRUE(golden[1][0].ok);

    // Plant a gang snapshot with members advanced to a shared frontier,
    // built with the same D-miss maps the gang attaches.
    const std::size_t frontier = t.size() / 3;
    std::vector<std::unique_ptr<cpu::CoreModel>> members;
    std::vector<std::vector<std::uint8_t>> dmaps;
    dmaps.reserve(gang.size()); // members hold pointers into it
    ckpt::Writer w;
    w.beginSection(ckpt::tag::kGang);
    w.u32(gang.size());
    w.u64(frontier);
    for (std::size_t ci = 0; ci < gang.size(); ++ci)
        w.u8(1); // every member modelled, none done
    w.endSection();
    for (const auto &gc : gang) {
        auto m = std::make_unique<cpu::CoreModel>(gc.cfg);
        if (gc.cfg.dcacheEnabled) {
            dmaps.push_back(cache::computeDataMissMap(t, gc.cfg.dcache));
            m->setDataMissMap(&dmaps.back());
        }
        m->beginRun(t);
        m->advance(frontier);
        m->saveState(w);
        members.push_back(std::move(m));
    }
    w.finish();

    const std::string dir = freshCkptDir("zbp_ckpt_gang");
    const std::string path = GangJob(gang, &t).identity().ckptPath(dir);
    ASSERT_TRUE(ckpt::saveCkptFile(path, w));

    const auto got = sim::runGangs(RunPolicy{.workers = 1, .ckptDir = dir},
                                   gang, traces);
    for (std::size_t ci = 0; ci < gang.size(); ++ci) {
        SCOPED_TRACE(ci);
        ASSERT_TRUE(got[ci][0].ok) << got[ci][0].error;
        EXPECT_EQ(cpu::counterMismatch(golden[ci][0].result,
                                       got[ci][0].result),
                  "");
    }
    EXPECT_FALSE(ckpt::ckptFileExists(path));
}

TEST(CkptRunner, CmpRunnerResumesFromPlantedCheckpoint)
{
    const auto ta = midTrace("ckpt-cmp-a", 30'000);
    const auto tb = midTrace("ckpt-cmp-b", 24'000);
    sim::CmpJob job;
    job.name = "ck-cmp";
    job.cfg = sim::configBtb2();
    job.cfg.cmp.cores = 2;
    job.cfg.cmp.btb2Banks = 2;
    job.traces = {trace::borrowTrace(ta), trace::borrowTrace(tb)};

    sim::CmpRunner plain(RunPolicy{.workers = 1});
    const auto golden = plain.run({job});
    ASSERT_TRUE(golden[0].ok) << golden[0].error;

    // Plant a mid-run CMP snapshot with the runner's own D-miss maps.
    std::vector<std::uint8_t> da, db;
    sim::CmpModel m(job.cfg);
    if (job.cfg.dcacheEnabled) {
        da = cache::computeDataMissMap(ta, job.cfg.dcache);
        db = cache::computeDataMissMap(tb, job.cfg.dcache);
        m.setDataMissMap(0, &da);
        m.setDataMissMap(1, &db);
    }
    const std::vector<const trace::Trace *> tps{&ta, &tb};
    m.beginRun(tps);
    m.advance(m.maxInsts() / 3);
    ckpt::Writer w;
    m.saveState(w);
    w.finish();

    const std::string dir = freshCkptDir("zbp_ckpt_cmp");
    const std::string path = sim::CmpChipJob(job).identity().ckptPath(dir);
    ASSERT_TRUE(ckpt::saveCkptFile(path, w));

    sim::CmpRunner resumed(RunPolicy{.workers = 1, .ckptDir = dir});
    const auto got = resumed.run({job});
    ASSERT_TRUE(got[0].ok) << got[0].error;
    EXPECT_EQ(sim::cmpMismatch(golden[0].result, got[0].result), "");
    EXPECT_FALSE(ckpt::ckptFileExists(path));
}

TEST(CkptRunner, TornTrailingJsonlLineIsSkippedOnResume)
{
    const auto t = midTrace("ckpt-torn", 20'000);
    const std::string sink = ::testing::TempDir() + "/zbp_torn.jsonl";
    std::remove(sink.c_str());

    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("torn-a", sim::configNoBtb2(), &t));
    jobs.push_back(SimJob("torn-b", sim::configBtb2(), &t));
    JobRunner jr(RunPolicy{.workers = 2, .sinkPath = sink});
    const auto first = jr.run(jobs);
    ASSERT_TRUE(first[0].ok);
    ASSERT_TRUE(first[1].ok);

    // Simulate a writer killed mid-record: an unterminated final line.
    {
        std::ofstream os(sink, std::ios::app);
        os << R"({"config":"torn-c","trace":")" << t.name()
           << R"(","seed":1,"ok":true,"cycles":12)";
    }
    EXPECT_EQ(ResumeIndex(sink).size(), 2u);

    JobRunner again(RunPolicy{.workers = 2, .resumePath = sink});
    const auto second = again.run(jobs);
    EXPECT_TRUE(second[0].resumed);
    EXPECT_TRUE(second[1].resumed);
    std::remove(sink.c_str());
}

} // namespace
} // namespace zbp::runner
