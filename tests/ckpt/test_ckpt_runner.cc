/**
 * @file
 * Checkpoint/restore across the runner stack: a planted mid-trace
 * snapshot resumes a JobRunner / GangRunner / CmpRunner job to the
 * exact counters of an uninterrupted run, a corrupt snapshot degrades
 * to a from-scratch re-run, torn trailing JSONL lines are skipped on
 * resume, and a SIGKILLed sweep re-run with checkpointing produces the
 * identical final record set (the crash-recovery contract end to end).
 */

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/runner/job_runner.hh"
#include "zbp/sim/cmp/cmp_model.hh"
#include "zbp/sim/cmp/cmp_runner.hh"
#include "zbp/sim/configs.hh"
#include "zbp/sim/gang_runner.hh"
#include "zbp/trace/trace_index.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"
#include "zbp/workload/suites.hh"

namespace zbp::runner
{
namespace
{

namespace fs = std::filesystem;

/** Scoped setenv/unsetenv so runner env contracts cannot leak. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *var, const char *value) : name(var)
    {
        const char *old = std::getenv(var);
        if (old != nullptr) {
            hadOld = true;
            oldValue = old;
        }
        if (value != nullptr)
            ::setenv(var, value, 1);
        else
            ::unsetenv(var);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(name.c_str(), oldValue.c_str(), 1);
        else
            ::unsetenv(name.c_str());
    }

  private:
    std::string name;
    std::string oldValue;
    bool hadOld = false;
};

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

/** Plant a mid-run snapshot exactly where the JobRunner would look. */
std::string
plantJobCheckpoint(const std::string &dir, const std::string &config,
                   const core::MachineParams &cfg, const trace::Trace &t,
                   std::size_t at)
{
    const std::uint64_t seed = JobRunner::deriveSeed(config, t.name());
    const std::string path =
            ckpt::ckptPathFor(dir, resumeKey(config, t.name(), seed));
    cpu::CoreModel m(cfg);
    m.beginRun(t);
    m.advance(at);
    ckpt::Writer w;
    m.saveState(w);
    w.finish();
    EXPECT_TRUE(ckpt::saveCkptFile(path, w));
    return path;
}

TEST(CkptRunner, JobRunnerResumesMidTraceFromPlantedCheckpoint)
{
    const auto t = midTrace("ckpt-job", 60'000);
    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("ck-job", sim::configBtb2(), &t));

    JobRunner plain(1);
    plain.setSinkPath("");
    plain.setResumePath("");
    const auto golden = plain.run(jobs);
    ASSERT_TRUE(golden[0].ok) << golden[0].error;

    const std::string dir = freshCkptDir("zbp_ckpt_job");
    const std::string path = plantJobCheckpoint(
            dir, "ck-job", sim::configBtb2(), t, t.size() / 2);
    ASSERT_TRUE(ckpt::ckptFileExists(path));

    ScopedEnv d("ZBP_CKPT_DIR", dir.c_str());
    ScopedEnv i("ZBP_CKPT_INTERVAL", nullptr);
    JobRunner resumed(1);
    resumed.setSinkPath("");
    resumed.setResumePath("");
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

    JobRunner plain(1);
    plain.setSinkPath("");
    plain.setResumePath("");
    const auto golden = plain.run(jobs);
    ASSERT_TRUE(golden[0].ok) << golden[0].error;

    const std::string dir = freshCkptDir("zbp_ckpt_corrupt");
    const std::string path = plantJobCheckpoint(
            dir, "ck-corrupt", sim::configBtb2(), t, t.size() / 2);

    // Flip a byte deep inside the snapshot body.
    auto bytes = ckpt::loadCkptFile(path);
    ASSERT_GT(bytes.size(), 200u);
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.close();

    ScopedEnv d("ZBP_CKPT_DIR", dir.c_str());
    JobRunner resumed(1);
    resumed.setSinkPath("");
    resumed.setResumePath("");
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

    JobRunner plain(2);
    plain.setSinkPath("");
    plain.setResumePath("");
    const auto golden = plain.run(jobs);

    const std::string dir = freshCkptDir("zbp_ckpt_periodic");
    ScopedEnv d("ZBP_CKPT_DIR", dir.c_str());
    ScopedEnv i("ZBP_CKPT_INTERVAL", "7000");
    JobRunner ck(2);
    ck.setSinkPath("");
    ck.setResumePath("");
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

    sim::GangRunner plain(gang, 1);
    plain.setSinkPath("");
    plain.setResumePath("");
    const auto golden = plain.run(traces);
    ASSERT_TRUE(golden[0][0].ok);
    ASSERT_TRUE(golden[1][0].ok);

    // Plant a gang snapshot with members advanced to a shared frontier,
    // built with the same sidecars the gang attaches.
    const std::size_t frontier = t.size() / 3;
    const trace::TraceIndex index(t);
    std::vector<std::unique_ptr<cpu::CoreModel>> members;
    std::vector<std::vector<std::uint8_t>> dmaps;
    dmaps.reserve(gang.size()); // members hold pointers into it
    ckpt::Writer w;
    w.beginSection(ckpt::tag::kGang);
    w.putU32(static_cast<std::uint32_t>(gang.size()));
    w.putU64(frontier);
    for (std::size_t ci = 0; ci < gang.size(); ++ci)
        w.putU8(1); // every member modelled, none done
    w.endSection();
    for (const auto &gc : gang) {
        auto m = std::make_unique<cpu::CoreModel>(gc.cfg);
        m->setTraceIndex(&index);
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
    std::string key = "gang";
    for (const auto &gc : gang) {
        key += '\x1f';
        key += gc.name;
    }
    key += '\x1f';
    key += t.name();
    const std::string path = ckpt::ckptPathFor(dir, key);
    ASSERT_TRUE(ckpt::saveCkptFile(path, w));

    ScopedEnv d("ZBP_CKPT_DIR", dir.c_str());
    sim::GangRunner resumed(gang, 1);
    resumed.setSinkPath("");
    resumed.setResumePath("");
    const auto got = resumed.run(traces);
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

    sim::CmpRunner plain(1);
    plain.setSinkPath("");
    plain.setResumePath("");
    const auto golden = plain.run({job});
    ASSERT_TRUE(golden[0].ok) << golden[0].error;

    // Plant a mid-run CMP snapshot with the runner's own sidecars.
    const trace::TraceIndex ia(ta), ib(tb);
    std::vector<std::uint8_t> da, db;
    sim::CmpModel m(job.cfg);
    m.setTraceIndex(0, &ia);
    m.setTraceIndex(1, &ib);
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
    std::string key = "cmp";
    key += '\x1f';
    key += job.name;
    key += '\x1f';
    key += sim::cmpTraceMixId(job.traces);
    const std::string path = ckpt::ckptPathFor(dir, key);
    ASSERT_TRUE(ckpt::saveCkptFile(path, w));

    ScopedEnv d("ZBP_CKPT_DIR", dir.c_str());
    sim::CmpRunner resumed(1);
    resumed.setSinkPath("");
    resumed.setResumePath("");
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
    JobRunner jr(2);
    jr.setSinkPath(sink);
    jr.setResumePath("");
    const auto first = jr.run(jobs);
    ASSERT_TRUE(first[0].ok);
    ASSERT_TRUE(first[1].ok);

    // Simulate a writer killed mid-record: an unterminated final line.
    {
        std::ofstream os(sink, std::ios::app);
        os << R"({"config":"torn-c","trace":")" << t.name()
           << R"(","seed":1,"ok":true,"cycles":12)";
    }
    const auto prior = loadResumeResults(readRecords(sink));
    EXPECT_EQ(prior.size(), 2u);

    JobRunner again(2);
    again.setSinkPath("");
    again.setResumePath(sink);
    const auto second = again.run(jobs);
    EXPECT_TRUE(second[0].resumed);
    EXPECT_TRUE(second[1].resumed);
    std::remove(sink.c_str());
}

TEST(CkptRunner, KillResumeChaosProducesIdenticalRecordSet)
{
    const auto t = midTrace("ckpt-chaos", 1'200'000);
    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("chaos-a", sim::configNoBtb2(), &t));
    jobs.push_back(SimJob("chaos-b", sim::configBtb2(), &t));

    JobRunner plain(2);
    plain.setSinkPath("");
    plain.setResumePath("");
    const auto golden = plain.run(jobs);
    ASSERT_TRUE(golden[0].ok);
    ASSERT_TRUE(golden[1].ok);

    const std::string dir = freshCkptDir("zbp_ckpt_chaos");
    const std::string sink = dir + "/results.jsonl";

    const pid_t child = ::fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
        // The victim sweep: checkpoint frequently, then get SIGKILLed.
        ::setenv("ZBP_CKPT_DIR", dir.c_str(), 1);
        ::setenv("ZBP_CKPT_INTERVAL", "25000", 1);
        int rc = 0;
        try {
            JobRunner victim(2);
            victim.setSinkPath(sink);
            victim.setResumePath("");
            victim.run(jobs);
        } catch (...) {
            rc = 1;
        }
        ::_exit(rc);
    }

    // Kill the child as soon as the first snapshot lands (or let it
    // finish if it is faster than us — recovery must cope with both).
    bool exited = false;
    for (int spin = 0; spin < 20'000; ++spin) {
        int status = 0;
        if (::waitpid(child, &status, WNOHANG) == child) {
            exited = true;
            break;
        }
        if (ckptFilesIn(dir) > 0)
            break;
        ::usleep(500);
    }
    if (!exited) {
        ::kill(child, SIGKILL);
        int status = 0;
        ::waitpid(child, &status, 0);
    }

    // The recovery run: resume from the dead sweep's records and
    // snapshots, finishing whatever the kill interrupted.
    ScopedEnv d("ZBP_CKPT_DIR", dir.c_str());
    ScopedEnv i("ZBP_CKPT_INTERVAL", "25000");
    JobRunner recover(2);
    recover.setSinkPath(sink);
    recover.setResumePath(sink);
    const auto got = recover.run(jobs);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        SCOPED_TRACE(j);
        ASSERT_TRUE(got[j].ok) << got[j].error;
        EXPECT_EQ(cpu::counterMismatch(golden[j].result, got[j].result), "");
    }

    // The final record set holds exactly one valid record per job,
    // with the golden counters — never a duplicate, never a torn one.
    const auto prior = loadResumeResults(readRecords(sink));
    ASSERT_EQ(prior.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        SCOPED_TRACE(j);
        const auto it = prior.find(resumeKey(
                jobs[j].configName, t.name(),
                JobRunner::deriveSeed(jobs[j].configName, t.name())));
        ASSERT_NE(it, prior.end());
        EXPECT_EQ(cpu::counterMismatch(it->second.result, golden[j].result),
                  "");
    }
    EXPECT_EQ(ckptFilesIn(dir), 0u);
    fs::remove_all(dir);
}

} // namespace
} // namespace zbp::runner
