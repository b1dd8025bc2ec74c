/**
 * @file
 * The temporal-parallel sampled runner.  The load-bearing guarantee is
 * exact mode: intervals tile the trace, every interval restores a
 * fan-out snapshot, and the stitched counters are bit-identical to one
 * monolithic CoreModel::run — independent of worker count.  Fast mode
 * is pinned as an estimator: bounded coverage, a CPI estimate with an
 * error bar, and interval-granular resume through the standard
 * ZBP_RESULTS_JSONL / ZBP_RESUME_JSONL contract.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/runner/job_runner.hh"
#include "zbp/sample/sample_params.hh"
#include "zbp/sample/sample_runner.hh"
#include "zbp/sample/snapshot_fanout.hh"
#include "zbp/sim/configs.hh"
#include "zbp/util/json.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"

namespace zbp::sample
{
namespace
{

trace::Trace
makeTrace(std::uint64_t seed, std::size_t len)
{
    workload::BuildParams bp;
    bp.seed = seed;
    bp.numFunctions = 80;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.seed = seed + 1;
    gp.length = len;
    return workload::generateTrace(prog, gp,
                                   "sr-" + std::to_string(seed));
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/zbp_sample_" + name + ".jsonl";
}

TEST(SamplePlan, ExactModeTilesTheTrace)
{
    SampleParams p;
    p.mode = SampleMode::kExact;
    p.intervalInsts = 1'000;
    const auto plan = planIntervals(3'500, p);
    ASSERT_EQ(plan.size(), 4u);
    std::size_t expectBegin = 0;
    for (const auto &iv : plan) {
        EXPECT_EQ(iv.snapshotAt, iv.measureBegin);
        EXPECT_EQ(iv.measureBegin, expectBegin);
        expectBegin = iv.measureEnd;
    }
    EXPECT_EQ(plan.back().measureEnd, 3'500u);
}

TEST(SamplePlan, FastModeWindowsSitInsideIntervals)
{
    SampleParams p;
    p.mode = SampleMode::kFast;
    p.intervalInsts = 1'000;
    p.warmupInsts = 200;
    p.measureInsts = 100;
    const auto plan = planIntervals(10'000, p);
    ASSERT_EQ(plan.size(), 10u);
    for (const auto &iv : plan) {
        EXPECT_EQ(iv.snapshotAt, iv.index * 1'000);
        EXPECT_EQ(iv.measureBegin, iv.snapshotAt + 200);
        EXPECT_EQ(iv.measureEnd, iv.measureBegin + 100);
    }

    // A tail interval whose warm-up swallows the remaining trace has
    // nothing to measure and is dropped.
    const auto short_plan = planIntervals(10'100, p);
    EXPECT_EQ(short_plan.size(), 10u);
}

TEST(SamplePlan, RejectsUnusableGeometry)
{
    SampleParams p;
    p.intervalInsts = 0;
    EXPECT_THROW(planIntervals(1'000, p), std::invalid_argument);

    p.intervalInsts = 100;
    p.mode = SampleMode::kFast;
    p.warmupInsts = 90;
    p.measureInsts = 20; // 90 + 20 > 100
    EXPECT_THROW(p.validate(), std::invalid_argument);

    p.warmupInsts = 50;
    EXPECT_NO_THROW(p.validate());
    EXPECT_THROW(planIntervals(0, p), std::invalid_argument);
}

TEST(SampleParamsTest, MeasuredDefaultsToTenthOfInterval)
{
    SampleParams p;
    p.mode = SampleMode::kFast;
    p.intervalInsts = 5'000;
    p.measureInsts = 0;
    EXPECT_EQ(p.measured(), 500u);
    p.measureInsts = 123;
    EXPECT_EQ(p.measured(), 123u);
    p.mode = SampleMode::kExact;
    EXPECT_EQ(p.measured(), 5'000u);
}

TEST(SampleRunnerTest, ExactStitchBitIdenticalToMonolithicRun)
{
    const trace::Trace t = makeTrace(51, 24'000);
    const struct
    {
        const char *name;
        core::MachineParams cfg;
    } configs[] = {
        {"no-btb2", sim::configNoBtb2()},
        {"btb2", sim::configBtb2()},
    };
    SampleParams p;
    p.mode = SampleMode::kExact;
    p.intervalInsts = 5'000; // 5 intervals, ragged tail

    for (const auto &c : configs) {
        SCOPED_TRACE(c.name);
        cpu::CoreModel golden(c.cfg);
        const cpu::SimResult mono = golden.run(t);

        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(jobs);
            SampleRunner sr(p, runner::RunPolicy{.workers = jobs});
            const SampleReport rep = sr.run(c.name, c.cfg, t);

            EXPECT_TRUE(rep.exact);
            EXPECT_EQ(rep.intervals, (t.size() + 4'999) / 5'000);
            EXPECT_DOUBLE_EQ(rep.coverage, 1.0);
            EXPECT_EQ(cpu::counterMismatch(mono, rep.stitched), "");
        }
    }
}

TEST(SampleRunnerTest, FastModeEstimatesWithBoundedCoverage)
{
    const trace::Trace t = makeTrace(52, 30'000);
    const core::MachineParams cfg = sim::configBtb2();

    cpu::CoreModel golden(cfg);
    const cpu::SimResult mono = golden.run(t);

    SampleParams p;
    p.mode = SampleMode::kFast;
    p.intervalInsts = 5'000;
    p.warmupInsts = 1'000;
    p.measureInsts = 1'000;

    SampleRunner sr(p, runner::RunPolicy{.workers = 4});
    const SampleReport rep = sr.run("btb2", cfg, t);

    // Window boundaries shift by up to decodeWidth-1 instructions
    // (advance() overshoot), so compare against the plan with slack.
    const auto plan = planIntervals(t.size(), p);
    std::size_t planned = 0;
    for (const auto &iv : plan)
        planned += iv.measureEnd - iv.measureBegin;

    EXPECT_FALSE(rep.exact);
    EXPECT_EQ(rep.intervals, plan.size());
    EXPECT_NEAR(static_cast<double>(rep.stitched.instructions),
                static_cast<double>(planned),
                3.0 * static_cast<double>(plan.size()));
    EXPECT_NEAR(rep.coverage,
                static_cast<double>(planned) /
                        static_cast<double>(t.size()),
                0.01);
    EXPECT_GT(rep.estimatedCpi, 0.0);
    EXPECT_GE(rep.cpiErrorBar, 0.0);
    EXPECT_GT(rep.warmupInstsPerSec, 0.0);
    // Sanity, not precision (the 2% acceptance bound is measured on
    // the benchmark-scale traces): the estimate lands in the right
    // ballpark of the true CPI.
    EXPECT_GT(rep.estimatedCpi, 0.5 * mono.cpi);
    EXPECT_LT(rep.estimatedCpi, 2.0 * mono.cpi);
}

TEST(SampleRunnerTest, IntervalRecordsFollowTheJsonlContract)
{
    const trace::Trace t = makeTrace(53, 12'000);
    const core::MachineParams cfg = sim::configNoBtb2();
    const std::string sink = tempPath("records");
    std::remove(sink.c_str());

    SampleParams p;
    p.mode = SampleMode::kExact;
    p.intervalInsts = (t.size() + 2) / 3; // exactly 3 intervals
    SampleRunner sr(p, runner::RunPolicy{.workers = 2, .sinkPath = sink});
    const SampleReport rep = sr.run("base", cfg, t);
    EXPECT_EQ(rep.intervals, 3u);
    EXPECT_EQ(rep.resumedIntervals, 0u);

    std::ifstream in(sink);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t lines = 0;
    bool sawIv0 = false, sawIv2 = false;
    while (std::getline(in, line)) {
        ++lines;
        sawIv0 = sawIv0 ||
                 line.find("\"config\":\"base#iv0\"") != std::string::npos;
        sawIv2 = sawIv2 ||
                 line.find("\"config\":\"base#iv2\"") != std::string::npos;
        EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
    }
    EXPECT_EQ(lines, 3u);
    EXPECT_TRUE(sawIv0);
    EXPECT_TRUE(sawIv2);
    std::remove(sink.c_str());
}

TEST(SampleRunnerTest, ResumeSatisfiesIntervalsFromPriorResults)
{
    const trace::Trace t = makeTrace(54, 16'000);
    const core::MachineParams cfg = sim::configBtb2();
    const std::string first = tempPath("resume_first");
    const std::string second = tempPath("resume_second");
    std::remove(first.c_str());
    std::remove(second.c_str());

    SampleParams p;
    p.mode = SampleMode::kExact;
    p.intervalInsts = 4'000;

    SampleRunner sr(p,
                    runner::RunPolicy{.workers = 2, .sinkPath = first});
    const SampleReport rep1 = sr.run("btb2", cfg, t);
    EXPECT_EQ(rep1.resumedIntervals, 0u);

    SampleRunner sr2(p, runner::RunPolicy{.workers = 2,
                                          .sinkPath = second,
                                          .resumePath = first});
    const SampleReport rep2 = sr2.run("btb2", cfg, t);
    EXPECT_EQ(rep2.resumedIntervals, rep2.intervals);

    // Nothing re-ran, so nothing was re-written to the new sink.
    std::ifstream in(second);
    EXPECT_TRUE(!in.good() || in.peek() == std::ifstream::traits_type::eof());

    // A stitch over resumed intervals is lossless: it equals the fresh
    // stitch and the monolithic run on every counter and the CPI bits.
    cpu::CoreModel mono(cfg);
    EXPECT_EQ(cpu::counterMismatch(rep2.stitched, mono.run(t)), "");
    EXPECT_EQ(cpu::counterMismatch(rep2.stitched, rep1.stitched), "");
    EXPECT_EQ(rep2.cpiErrorBar, rep1.cpiErrorBar);

    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST(SampleRunnerTest, WarmupFailureReleasesWaitingIntervals)
{
    // advanceFunctional rejects fault injection, so a fast-mode warm-up
    // throws at its first step, before any snapshot is published: every
    // interval is still waiting and must fail, and run() must return
    // with the warm-up's own error instead of hanging.
    const trace::Trace t = makeTrace(55, 12'000);
    core::MachineParams cfg = sim::configBtb2();
    cfg.faults.enabled = true;
    SampleParams p;
    p.mode = SampleMode::kFast;
    p.intervalInsts = 3'000;
    p.warmupInsts = 500;
    p.measureInsts = 500;
    const std::size_t n = planIntervals(t.size(), p).size();

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        const std::string sink = tempPath("warmup_failure");
        std::remove(sink.c_str());
        SampleRunner sr(p, runner::RunPolicy{.workers = jobs,
                                             .sinkPath = sink});
        try {
            sr.run("faulty", cfg, t);
            ADD_FAILURE() << "a failed warm-up must fail the run";
        } catch (const std::logic_error &e) {
            EXPECT_NE(std::string(e.what()).find("fault injection"),
                      std::string::npos)
                    << e.what();
        }
        const auto records = runner::readRecords(sink);
        EXPECT_EQ(records.size(), n);
        for (const json::Value &r : records) {
            EXPECT_EQ(r["ok"].boolean(), false);
            ASSERT_NE(r["error"].str(), nullptr);
            EXPECT_NE(r["error"].str()->find("warm-up failed"),
                      std::string::npos)
                    << *r["error"].str();
        }
        std::remove(sink.c_str());
    }
}

TEST(SampleRunnerTest, SnapshotWaitIsOutsideTheDeadline)
{
    // Short windows over a long trace, one worker per interval: every
    // interval starts at once, and interval k waits about k/32 of the
    // serial warm-up for its snapshot.  A timeout below the warm-up's
    // duration (but, as in the chaos tests, at least 20x an interval's
    // own run) must not see that wait.  Each window spans enough
    // cycles that the model polls its cancel flag.  The trace is long
    // enough that the warm-up outlasts that budget with room to spare
    // (an interval's own run is mostly its restore, whatever the trace
    // length).
    const trace::Trace t = makeTrace(56, 10'000'000);
    const core::MachineParams cfg = sim::configBtb2();
    SampleParams p;
    p.mode = SampleMode::kFast;
    p.intervalInsts = t.size() / 32;
    p.warmupInsts = 2'000;
    p.measureInsts = 2'000;
    const auto workers =
            static_cast<unsigned>(planIntervals(t.size(), p).size());

    const std::string sink = tempPath("deadline_untimed");
    std::remove(sink.c_str());
    const SampleReport untimed =
            SampleRunner(p, runner::RunPolicy{.workers = workers,
                                              .sinkPath = sink})
                    .run("btb2", cfg, t);
    double interval_s = 0.0;
    for (const json::Value &r : runner::readRecords(sink))
        interval_s = std::max(interval_s, r["seconds"].num().value_or(0.0));
    std::remove(sink.c_str());
    const double budget = std::max(0.1, 20.0 * interval_s);
    ASSERT_LT(budget, 0.75 * untimed.warmupSeconds)
            << "the late intervals' waits must outlast the budget for "
               "the test to bite";

    const std::string timed_sink = tempPath("deadline_timed");
    std::remove(timed_sink.c_str());
    const SampleReport timed =
            SampleRunner(p, runner::RunPolicy{.workers = workers,
                                              .sinkPath = timed_sink,
                                              .timeout = budget})
                    .run("btb2", cfg, t);
    const auto records = runner::readRecords(timed_sink);
    EXPECT_EQ(records.size(), timed.intervals);
    for (const json::Value &r : records)
        EXPECT_EQ(r["ok"].boolean(), true);
    EXPECT_EQ(cpu::counterMismatch(timed.stitched, untimed.stitched), "");
    EXPECT_EQ(timed.cpiErrorBar, untimed.cpiErrorBar);
    // Nor is the wait part of the intervals' own time.
    EXPECT_LT(timed.detailedSeconds, timed.warmupSeconds);
    std::remove(timed_sink.c_str());
}

TEST(SampleRunnerTest, MapFilledBesideWarmupMatchesPrecomputed)
{
    // A sampled run's D-cache outcome map is still filling while the
    // warm-up walks and the intervals run.  Fill it here only as far as
    // each map wait asks, right before that walk, and poison the rest
    // with a byte a finished map never holds (anything non-zero reads
    // as a miss): every snapshot must equal the one taken over the
    // finished map, byte for byte, and every interval run over a map
    // filled only to its own mapNeededFor must measure what it does
    // over the finished one.
    const trace::Trace t = makeTrace(57, 60'000);
    const core::MachineParams cfg = sim::configBtb2();
    const std::vector<std::uint8_t> full =
            cache::computeDataMissMap(t, cfg.dcache);
    constexpr std::uint8_t kPoison = 0xEE;

    for (const SampleMode mode : {SampleMode::kExact, SampleMode::kFast}) {
        SCOPED_TRACE(to_string(mode));
        SampleParams p;
        p.mode = mode;
        p.intervalInsts = 10'000;
        p.warmupInsts = 2'000;
        p.measureInsts = 2'000;
        const auto plan = planIntervals(t.size(), p);
        const auto need = [&](std::size_t i) {
            return mapNeededFor(plan[i], t.size(), cfg.cpu.decodeWidth);
        };

        const auto snapshots = [&](const std::vector<std::uint8_t> &map,
                                   const std::function<void(std::size_t)>
                                           &wait) {
            std::vector<ckpt::SnapshotBuffer> out(plan.size());
            cpu::CoreModel m(cfg);
            m.setDataMissMap(&map);
            runWarmupFanout(
                    m, t, plan, mode,
                    [&out](std::size_t i, ckpt::SnapshotBuffer snap) {
                        out[i] = std::move(snap);
                    },
                    wait);
            return out;
        };
        const auto want = snapshots(full, {});
        std::vector<std::uint8_t> filling(t.size(), kPoison);
        cache::ICache d(cfg.dcache);
        std::size_t filled = 0;
        const auto got = snapshots(filling, [&](std::size_t i) {
            cache::fillDataMissMap(t, d, filling, filled, need(i));
            filled = need(i);
        });
        EXPECT_EQ(filling.back(), mode == SampleMode::kFast ? kPoison : 0)
                << "a fast walk never needs the trace's tail";
        for (std::size_t i = 0; i < plan.size(); ++i)
            EXPECT_TRUE(got[i] == want[i])
                    << "snapshot " << i << ":\n"
                    << ckpt::diffSummary(got[i], want[i]);

        cpu::SimResult stitched;
        stitched.traceName = t.name();
        for (std::size_t i = 0; i < plan.size(); ++i) {
            std::promise<ckpt::SnapshotBuffer> ready;
            ready.set_value(want[i]);
            const auto future = ready.get_future().share();
            const bool closes = mode == SampleMode::kExact &&
                                plan[i].measureEnd == t.size();
            std::vector<std::uint8_t> partial = full;
            std::fill(partial.begin() +
                              static_cast<std::ptrdiff_t>(need(i)),
                      partial.end(), kPoison);
            cpu::SimResult delta[2];
            for (const int k : {0, 1}) {
                IntervalJob job("btb2", cfg, t, plan[i], future, closes,
                                k == 0 ? &full : &partial);
                job.begin(nullptr);
                job.advance(plan[i].measureEnd);
                job.finish();
                delta[k] = job.result().result;
            }
            EXPECT_EQ(cpu::counterMismatch(delta[0], delta[1]), "")
                    << "interval " << i;
            for (const cpu::SimCounter &c : cpu::kSimCounters)
                stitched.*c.member += delta[0].*c.member;
        }
        stitched.cpi = static_cast<double>(stitched.cycles) /
                       static_cast<double>(stitched.instructions);

        // The runner's own map fills on its thread beside the warm-up.
        SampleRunner sr(p, runner::RunPolicy{.workers = 4});
        EXPECT_EQ(cpu::counterMismatch(sr.run("btb2", cfg, t).stitched,
                                       stitched),
                  "");
    }
}

TEST(SampleRunnerTest, EmptyTraceRejected)
{
    SampleParams p;
    SampleRunner sr(p, runner::RunPolicy{.workers = 1});
    const trace::Trace t("empty");
    EXPECT_THROW(sr.run("x", sim::configNoBtb2(), t),
                 std::invalid_argument);
}

} // namespace
} // namespace zbp::sample
