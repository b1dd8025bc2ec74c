/**
 * @file
 * The chaos sweep, once per job kind (single job, core gang, CMP chip,
 * sampled interval): one batch mixing healthy jobs with every failure
 * mode the engine hardens against — a null trace, a corrupt input, and
 * a job that outruns its wall-clock budget.  For every kind the sweep
 * must complete with exactly the bad jobs failed (naming each cause), a
 * timeout must never be retried while a transient error is, a resumed
 * rerun must re-execute only the failed jobs, and a SIGKILLed sweep
 * resumed from its records and snapshots must reproduce the record set
 * of an uninterrupted run.
 */

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <regex>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "zbp/runner/executor.hh"
#include "zbp/runner/gang_job.hh"
#include "zbp/runner/job_runner.hh"
#include "zbp/sample/sample_runner.hh"
#include "zbp/sim/cmp/cmp_runner.hh"
#include "zbp/sim/configs.hh"
#include "zbp/trace/trace_io.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"
#include "zbp/workload/suites.hh"

namespace zbp::runner
{
namespace
{

namespace fs = std::filesystem;

enum class Kind { kSingle, kGang, kCmp, kInterval };

/** The five jobs of a chaos batch, in batch order. */
enum class Role { kHealthyA, kNullTrace, kCorrupt, kHanging, kHealthyB };
constexpr Role kRoles[] = {Role::kHealthyA, Role::kNullTrace,
                           Role::kCorrupt, Role::kHanging,
                           Role::kHealthyB};

const char *
roleName(Role r)
{
    static const char *const kNames[] = {"healthy-a", "null-trace",
                                         "corrupt-trace", "hanging",
                                         "healthy-b"};
    return kNames[static_cast<int>(r)];
}

trace::Trace
generated(const char *name, std::uint64_t length, std::uint64_t seed)
{
    workload::BuildParams bp;
    bp.seed = seed;
    bp.numFunctions = 120;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.seed = seed + 1;
    gp.length = length;
    return workload::generateTrace(prog, gp, name);
}

/** The traces every case shares, built once. */
struct Inputs
{
    trace::Trace healthyA =
            workload::makeSuiteTrace(workload::findSuite("cb84"), 0.01);
    trace::Trace healthyB =
            workload::makeSuiteTrace(workload::findSuite("tpf"), 0.01);
    /** Far longer than any budget derived from the healthy jobs, so
     * the watchdog provably kills it rather than racing completion. */
    trace::Trace hanging = generated("chaos-long", 4'000'000, 21);
    trace::Trace empty{"chaos-empty"};
};

const Inputs &
inputs()
{
    static const Inputs in;
    return in;
}

const char *
kindName(Kind k)
{
    static const char *const kNames[] = {"single", "gang", "cmp",
                                         "interval"};
    return kNames[static_cast<int>(k)];
}

/** A per-kind scratch file, so parallel test processes never share. */
std::string
scratch(Kind k, const std::string &leaf)
{
    return ::testing::TempDir() + "/zbp_chaos_" + kindName(k) + "_" + leaf;
}

/** A mid-run snapshot of @p cfg over @p t at instruction @p at: what a
 * warm-up fan-out hands an interval. */
ckpt::SnapshotBuffer
snapshotAt(const core::MachineParams &cfg, const trace::Trace &t,
           std::size_t at)
{
    cpu::CoreModel m(cfg);
    m.beginRun(t);
    m.advance(at);
    ckpt::Writer w;
    m.saveState(w);
    w.finish();
    return ckpt::SnapshotBuffer::capture(w);
}

/**
 * A batch of jobs of one kind, owning everything its jobs borrow.
 * Healthy roles run over @p a / @p b.  @p repaired builds the same
 * batch with every failure cause removed (the null trace gets a trace,
 * the corrupt input is replaced by a valid one); the hanging job only
 * needs its timeout lifted.
 */
class Batch
{
  public:
    Batch(Kind kind, const trace::Trace &a, const trace::Trace &b,
          const std::vector<Role> &roles, bool repaired)
        : kind(kind), a(a), b(b), repaired(repaired)
    {
        for (const Role r : roles)
            add(r);
    }

    const std::vector<std::unique_ptr<Job>> &jobs() const { return owned; }

    const Job &operator[](std::size_t i) const { return *owned[i]; }

    /** Job @p i's member results after a run — a gang's configs, a
     * CMP's cores, an interval's delta — each with its ok flag. */
    std::vector<std::pair<bool, cpu::SimResult>>
    results(std::size_t i) const
    {
        std::vector<std::pair<bool, cpu::SimResult>> out;
        switch (kind) {
        case Kind::kSingle:
        case Kind::kGang:
            for (const SimJobResult &r :
                 static_cast<GangJob &>(*owned[i]).results())
                out.emplace_back(r.ok, r.result);
            break;
        case Kind::kCmp: {
            const auto &r = static_cast<sim::CmpChipJob &>(*owned[i]).result();
            for (const cpu::SimResult &c : r.result.core)
                out.emplace_back(r.ok, c);
            break;
        }
        case Kind::kInterval: {
            const auto &r =
                    static_cast<const sample::IntervalJob &>(*owned[i])
                            .result();
            out.emplace_back(r.ok, r.result);
            break;
        }
        }
        return out;
    }

  private:
    /** The trace role @p r runs over; null for a null-trace job. */
    const trace::Trace *
    traceOf(Role r) const
    {
        const Inputs &in = inputs();
        switch (r) {
        case Role::kHealthyA: return &a;
        case Role::kHealthyB: return &b;
        case Role::kHanging: return &in.hanging;
        case Role::kNullTrace: return repaired ? &b : nullptr;
        case Role::kCorrupt:
            // An interval's corrupt input is its restore snapshot.
            return repaired || kind == Kind::kInterval ? &a : &in.empty;
        }
        return nullptr;
    }

    void
    add(Role r)
    {
        const std::string name = roleName(r);
        const Inputs &in = inputs();
        const trace::Trace *t = traceOf(r);
        switch (kind) {
        case Kind::kSingle:
        case Kind::kGang: {
            std::vector<GangConfig> cfgs = {{name, sim::configBtb2()}};
            if (kind == Kind::kGang)
                cfgs.insert(cfgs.begin(),
                            {name + "-base", sim::configNoBtb2()});
            if (r == Role::kCorrupt) // read from a (corrupt) file
                owned.push_back(std::make_unique<GangJob>(
                        cfgs, nullptr, scratch(kind, "corrupt.zbpt")));
            else
                owned.push_back(std::make_unique<GangJob>(cfgs, t));
            break;
        }
        case Kind::kCmp: {
            sim::CmpJob job;
            job.name = name;
            job.cfg = sim::configBtb2();
            job.cfg.cmp.cores = 2;
            job.cfg.cmp.btb2Banks = 2;
            job.traces = {trace::borrowTrace(a),
                          t != nullptr ? trace::borrowTrace(*t)
                                       : trace::TraceHandle()};
            cmp.push_back(std::move(job));
            owned.push_back(std::make_unique<sim::CmpChipJob>(cmp.back()));
            break;
        }
        case Kind::kInterval: {
            // The second half of the trace, restored from a snapshot
            // at its midpoint (a corrupt role gets a damaged one).
            const trace::Trace &tt = t != nullptr ? *t : in.empty;
            const std::size_t mid = r == Role::kHanging ? 0 : tt.size() / 2;
            ckpt::SnapshotBuffer snap = mid > 0 ? snapshotAt(cfg, tt, mid)
                                                : ckpt::SnapshotBuffer();
            if (r == Role::kCorrupt && !repaired) {
                auto bytes = snap.bytes();
                bytes[bytes.size() / 2] ^= 0x40;
                snap = ckpt::SnapshotBuffer(std::move(bytes));
            }
            const sample::IntervalPlan iv{1, mid, mid, tt.size()};
            std::promise<ckpt::SnapshotBuffer> ready;
            ready.set_value(std::move(snap));
            owned.push_back(std::make_unique<sample::IntervalJob>(
                    name, cfg, tt, iv, ready.get_future().share(), true));
            break;
        }
        }
    }

    Kind kind;
    const trace::Trace &a;
    const trace::Trace &b;
    bool repaired;
    const core::MachineParams cfg = sim::configBtb2();
    std::deque<sim::CmpJob> cmp; ///< CmpChipJobs borrow these
    std::vector<std::unique_ptr<Job>> owned;
};

/** The error a failing role of @p kind must name. */
std::string
expectedError(Kind kind, Role r)
{
    switch (r) {
    case Role::kHanging:
        return "timed out";
    case Role::kNullTrace:
        return kind == Kind::kInterval ? "empty trace" : "no trace";
    case Role::kCorrupt:
        if (kind == Kind::kInterval)
            return "checkpoint";
        return kind == Kind::kCmp ? "empty trace" : "magic";
    default:
        return "";
    }
}

/** The records of @p path without their timing fields, sorted: two
 * runs of the same work compare equal. */
std::vector<std::string>
recordSet(const std::string &path)
{
    static const std::regex timing(
            ",\"(seconds|attempts|queueSeconds|loadSeconds|runSeconds|"
            "timeoutMargin|retries|queueDepth|traceCacheHits)\":[^,}]*");
    std::vector<std::string> out;
    std::ifstream is(path);
    for (std::string line; std::getline(is, line);)
        out.push_back(std::regex_replace(line, timing, ""));
    std::sort(out.begin(), out.end());
    return out;
}

void
mixedFailureSweepCompletesAndResumeReRunsOnlyFailures(Kind kind)
{
    const Inputs &in = inputs();
    const std::string corrupt = scratch(kind, "corrupt.zbpt");
    {
        std::ofstream os(corrupt, std::ios::binary | std::ios::trunc);
        os << "ZBPX garbage that is definitely not a trace";
    }
    const std::string sink1 = scratch(kind, "first.jsonl");
    const std::string sink2 = scratch(kind, "second.jsonl");
    std::remove(sink1.c_str());
    std::remove(sink2.c_str());

    // The budget comes from a measured healthy run of this kind, with a
    // wide margin: loaded or instrumented hosts slow everything alike,
    // and the hanging job is ~250x longer than a healthy one.
    double healthy_s = 0.0;
    {
        Batch healthy(kind, in.healthyA, in.healthyB,
                      {Role::kHealthyA, Role::kHealthyB}, false);
        for (const auto &o : JobRunner(RunPolicy{.workers = 4})
                                     .run(healthy.jobs())) {
            ASSERT_TRUE(o.ok) << o.error;
            healthy_s = std::max(healthy_s, o.seconds);
        }
    }
    const double budget = std::max(0.1, 20.0 * healthy_s);

    const std::vector<Role> roles(std::begin(kRoles), std::end(kRoles));
    Batch chaos(kind, in.healthyA, in.healthyB, roles, false);
    const auto r1 = JobRunner(RunPolicy{.workers = 4,
                                        .sinkPath = sink1,
                                        .timeout = budget,
                                        .retries = 2})
                            .run(chaos.jobs());
    ASSERT_EQ(r1.size(), roles.size());
    for (std::size_t i = 0; i < roles.size(); ++i) {
        SCOPED_TRACE(roleName(roles[i]));
        const std::string want = expectedError(kind, roles[i]);
        if (want.empty()) {
            EXPECT_TRUE(r1[i].ok) << r1[i].error;
            continue;
        }
        EXPECT_FALSE(r1[i].ok);
        EXPECT_NE(r1[i].error.find(want), std::string::npos) << r1[i].error;
        // Neither a timeout nor a corrupt input is transient.
        EXPECT_EQ(r1[i].attempts, 1u);
    }

    // Repair every failure cause without changing a healthy job's
    // identity, lift the timeout, and resume from the first sweep.
    trace::saveTraceFile(in.healthyB, corrupt);
    Batch fixed(kind, in.healthyA, in.healthyB, roles, true);
    const auto r2 = JobRunner(RunPolicy{.workers = 4,
                                        .sinkPath = sink2,
                                        .resumePath = sink1})
                            .run(fixed.jobs());
    std::remove(corrupt.c_str());
    ASSERT_EQ(r2.size(), roles.size());

    // The healthy jobs are satisfied from the results file with their
    // first-run counters; only the three former failures execute, every
    // member of each now succeeds, and the second sink holds exactly
    // their records.
    std::size_t rerun_records = 0;
    for (std::size_t i = 0; i < roles.size(); ++i) {
        SCOPED_TRACE(roleName(roles[i]));
        EXPECT_TRUE(r2[i].ok) << r2[i].error;
        const bool healthy = expectedError(kind, roles[i]).empty();
        EXPECT_EQ(r2[i].resumed, healthy);
        const auto got = fixed.results(i);
        ASSERT_FALSE(got.empty());
        for (std::size_t m = 0; m < got.size(); ++m) {
            EXPECT_TRUE(got[m].first) << "member " << m;
            EXPECT_GT(got[m].second.cycles, 0u) << "member " << m;
        }
        if (healthy) {
            const auto first = chaos.results(i);
            ASSERT_EQ(first.size(), got.size());
            for (std::size_t m = 0; m < got.size(); ++m)
                EXPECT_EQ(cpu::counterMismatch(got[m].second,
                                               first[m].second),
                          "")
                        << "member " << m;
        } else {
            rerun_records += fixed[i].identity().records.size();
        }
    }
    EXPECT_EQ(recordSet(sink2).size(), rerun_records);
    std::remove(sink1.c_str());
    std::remove(sink2.c_str());
}

void
timeoutFailureRecordsElapsedAndIsNotRetried(Kind kind)
{
    const Inputs &in = inputs();
    Batch batch(kind, in.healthyA, in.healthyB, {Role::kHanging},
                false);
    const auto res = JobRunner(RunPolicy{.workers = 1,
                                         .timeout = 0.05,
                                         .retries = 3})
                             .run(batch.jobs());
    ASSERT_EQ(res.size(), 1u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_EQ(res[0].attempts, 1u); // a timeout is not transient
    EXPECT_NE(res[0].error.find("timed out"), std::string::npos)
            << res[0].error;
    // The job was cut down near its budget, not run to completion.
    EXPECT_GE(res[0].seconds, 0.05);
    EXPECT_LT(res[0].seconds, 5.0);
}

/** Wraps a job and throws a transient error from its first attempt's
 * first advance, after the inner job has begun and made progress. */
class FlakyJob final : public Job
{
  public:
    explicit FlakyJob(Job &j) : Job(j.identity()), inner(j) {}

    bool resume(const ResumeIndex &p) override { return inner.resume(p); }
    void begin(const std::atomic<bool> *c) override { inner.begin(c); }
    std::size_t position() const override { return inner.position(); }
    std::size_t length() const override { return inner.length(); }

    bool
    advance(std::size_t target) override
    {
        const bool done = inner.advance(target);
        if (!flaked) {
            flaked = true;
            throw RetryableError("transient hiccup");
        }
        return done;
    }

    bool save(ckpt::Writer &w) const override { return inner.save(w); }
    void restore(ckpt::Reader &r) override { inner.restore(r); }
    void finish() override { inner.finish(); }

    std::vector<JobRecord>
    close(const JobOutcome &o) override
    {
        return inner.close(o);
    }

  private:
    Job &inner;
    bool flaked = false;
};

void
retriesATransientErrorFromMidRun(Kind kind)
{
    const Inputs &in = inputs();
    const std::string plain_sink = scratch(kind, "plain.jsonl");
    const std::string flaky_sink = scratch(kind, "flaky.jsonl");
    std::remove(plain_sink.c_str());
    std::remove(flaky_sink.c_str());

    Batch plain(kind, in.healthyA, in.healthyB, {Role::kHealthyA},
                false);
    ASSERT_TRUE(JobRunner(RunPolicy{.workers = 1, .sinkPath = plain_sink})
                        .run(plain.jobs())[0]
                        .ok);

    Batch batch(kind, in.healthyA, in.healthyB, {Role::kHealthyA},
                false);
    FlakyJob once(*batch.jobs()[0]);
    const auto failed =
            JobRunner(RunPolicy{.workers = 1}).run({&once});
    EXPECT_FALSE(failed[0].ok); // no retries: the error stands
    EXPECT_NE(failed[0].error.find("transient"), std::string::npos);

    FlakyJob flaky(*batch.jobs()[0]);
    const auto got = JobRunner(RunPolicy{.workers = 1,
                                         .sinkPath = flaky_sink,
                                         .retries = 1})
                             .run({&flaky});
    EXPECT_TRUE(got[0].ok) << got[0].error;
    EXPECT_EQ(got[0].attempts, 2u);
    // The retry rebuilt the job from scratch: its records are the
    // uninterrupted run's.
    EXPECT_EQ(recordSet(flaky_sink), recordSet(plain_sink));
    std::remove(plain_sink.c_str());
    std::remove(flaky_sink.c_str());
}

// ChaosSweep runs the single-job kind; ChaosSweepByKind runs the same
// checks on every other kind.
TEST(ChaosSweep, MixedFailureSweepCompletesAndResumeReRunsOnlyFailures)
{
    mixedFailureSweepCompletesAndResumeReRunsOnlyFailures(Kind::kSingle);
}

TEST(ChaosSweep, TimeoutFailureRecordsElapsedAndIsNotRetried)
{
    timeoutFailureRecordsElapsedAndIsNotRetried(Kind::kSingle);
}

TEST(ChaosSweep, RetriesATransientErrorFromMidRun)
{
    retriesATransientErrorFromMidRun(Kind::kSingle);
}

class ChaosSweepByKind : public ::testing::TestWithParam<Kind>
{};

TEST_P(ChaosSweepByKind,
       MixedFailureSweepCompletesAndResumeReRunsOnlyFailures)
{
    mixedFailureSweepCompletesAndResumeReRunsOnlyFailures(GetParam());
}

TEST_P(ChaosSweepByKind, TimeoutFailureRecordsElapsedAndIsNotRetried)
{
    timeoutFailureRecordsElapsedAndIsNotRetried(GetParam());
}

TEST_P(ChaosSweepByKind, RetriesATransientErrorFromMidRun)
{
    retriesATransientErrorFromMidRun(GetParam());
}

INSTANTIATE_TEST_SUITE_P(JobKinds, ChaosSweepByKind,
                         ::testing::Values(Kind::kGang, Kind::kCmp,
                                           Kind::kInterval),
                         [](const ::testing::TestParamInfo<Kind> &info) {
                             return std::string(kindName(info.param));
                         });

std::size_t
ckptFilesIn(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir))
        n += e.path().extension() == ".ckpt";
    return n;
}

TEST(CkptRunner, KillResumeChaosProducesIdenticalRecordSet)
{
    const auto ta = generated("ckpt-chaos-a", 300'000, 31);
    const auto tb = generated("ckpt-chaos-b", 240'000, 41);
    const std::vector<Role> roles = {Role::kHealthyA, Role::kHealthyB};

    for (const Kind kind :
         {Kind::kSingle, Kind::kGang, Kind::kCmp, Kind::kInterval}) {
        SCOPED_TRACE(kindName(kind));
        const std::string dir = scratch(kind, "kill_resume");
        fs::remove_all(dir);
        fs::create_directories(dir);
        const std::string golden = dir + "/golden.jsonl";
        const std::string sink = dir + "/results.jsonl";
        {
            Batch g(kind, ta, tb, roles, false);
            JobRunner(RunPolicy{.workers = 2, .sinkPath = golden})
                    .run(g.jobs());
        }
        const RunPolicy ckpt_policy{.workers = 2,
                                    .sinkPath = sink,
                                    .ckptDir = dir,
                                    .ckptInterval = 25'000};

        const pid_t child = ::fork();
        ASSERT_GE(child, 0) << "fork failed";
        if (child == 0) {
            // The victim sweep: checkpoint often, then get SIGKILLed.
            int rc = 0;
            try {
                Batch v(kind, ta, tb, roles, false);
                JobRunner(ckpt_policy).run(v.jobs());
            } catch (...) {
                rc = 1;
            }
            ::_exit(rc);
        }

        // Kill the child as soon as the first snapshot lands (or let it
        // finish if it is faster than us — recovery copes with both).
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
        RunPolicy recover = ckpt_policy;
        recover.resumePath = sink;
        Batch r(kind, ta, tb, roles, false);
        for (const auto &o : JobRunner(recover).run(r.jobs()))
            EXPECT_TRUE(o.ok) << o.error;

        // The final record set equals the uninterrupted run's — never a
        // duplicate, never a torn line — and no snapshot is left.
        EXPECT_EQ(recordSet(sink), recordSet(golden));
        EXPECT_EQ(ckptFilesIn(dir), 0u);
        fs::remove_all(dir);
    }
}

} // namespace
} // namespace zbp::runner
