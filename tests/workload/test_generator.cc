/**
 * @file
 * Tests for the trace walker: control-flow consistency (the key
 * property — every trace the generator emits must be replayable),
 * dispatcher structure, call/return pairing, and determinism.
 */

#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"
#include "zbp/workload/suites.hh"

namespace zbp::workload
{
namespace
{

Program
smallProgram(std::uint64_t seed)
{
    BuildParams p;
    p.seed = seed;
    p.numFunctions = 80;
    return buildProgram(p);
}

GenParams
smallGen(std::uint64_t seed, std::uint64_t len = 40'000)
{
    GenParams g;
    g.seed = seed;
    g.length = len;
    g.numRoots = 20;
    g.hotRoots = 8;
    g.phaseLength = 10'000;
    return g;
}

TEST(Generator, ProducesRequestedLength)
{
    const Program p = smallProgram(1);
    const auto t = generateTrace(p, smallGen(2), "t");
    EXPECT_GE(t.size(), 40'000u);
    EXPECT_LT(t.size(), 40'064u); // stops promptly after the budget
}

TEST(Generator, Deterministic)
{
    const Program p = smallProgram(1);
    const auto a = generateTrace(p, smallGen(2), "a");
    const auto b = generateTrace(p, smallGen(2), "b");
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "at " << i;
}

TEST(Generator, SeedChangesTrace)
{
    const Program p = smallProgram(1);
    const auto a = generateTrace(p, smallGen(2), "a");
    const auto b = generateTrace(p, smallGen(3), "b");
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = !(a[i] == b[i]);
    EXPECT_TRUE(differs);
}

/** The central property: control-flow consistency over many seeds. */
class GeneratorConsistency
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GeneratorConsistency, TraceIsReplayable)
{
    const Program p = smallProgram(GetParam() * 7 + 1);
    const auto t = generateTrace(p, smallGen(GetParam()), "t");
    EXPECT_TRUE(t.consistent())
            << "discontinuity at " << t.firstDiscontinuity();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorConsistency,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Generator, DispatcherLoopStructure)
{
    const Program p = smallProgram(1);
    GenParams g = smallGen(5);
    const auto t = generateTrace(p, g, "t");

    // The trace starts in the dispatcher: plain inst then a call.
    EXPECT_EQ(t[0].ia, g.dispatcherBase);
    EXPECT_EQ(t[0].kind, trace::InstKind::kNonBranch);
    EXPECT_EQ(t[1].ia, g.dispatcherBase + 4);
    EXPECT_EQ(t[1].kind, trace::InstKind::kCall);
    EXPECT_TRUE(t[1].taken);

    // Every dispatcher call's transaction eventually returns to d+8.
    std::uint64_t dispatch_calls = 0, dispatch_returns = 0;
    for (const auto &i : t) {
        if (i.ia == g.dispatcherBase + 4 && i.kind == trace::InstKind::kCall)
            ++dispatch_calls;
        if (i.branch() && i.taken && i.target() == g.dispatcherBase + 8)
            ++dispatch_returns;
    }
    EXPECT_GT(dispatch_calls, 1u);
    EXPECT_GE(dispatch_calls, dispatch_returns);
    EXPECT_LE(dispatch_calls - dispatch_returns, 1u); // last may be cut
}

TEST(Generator, CallsAndReturnsBalance)
{
    const Program p = smallProgram(2);
    const auto t = generateTrace(p, smallGen(4), "t");
    std::int64_t depth = 0;
    std::int64_t min_depth = 0;
    for (const auto &i : t) {
        if (i.kind == trace::InstKind::kCall &&
            i.target() != i.fallThrough()) {
            ++depth; // degenerate fallthrough-calls don't push a frame
        } else if (i.kind == trace::InstKind::kReturn) {
            --depth;
        }
        min_depth = std::min(min_depth, depth);
    }
    EXPECT_GE(min_depth, 0) << "a return without a matching call";
}

TEST(Generator, ReturnsTargetTheirCallSiteFallThrough)
{
    const Program p = smallProgram(3);
    const auto t = generateTrace(p, smallGen(6), "t");
    std::vector<Addr> stack;
    for (const auto &i : t) {
        if (i.kind == trace::InstKind::kCall &&
            i.target() != i.fallThrough()) {
            stack.push_back(i.fallThrough());
        } else if (i.kind == trace::InstKind::kReturn) {
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(i.target(), stack.back());
            stack.pop_back();
        }
    }
}

TEST(Generator, LoopSitesIterateTheirTripCount)
{
    // Find a loop site in the program and verify the dynamic trace
    // takes it trip-1 times per entry.
    BuildParams bp;
    bp.seed = 11;
    bp.numFunctions = 40;
    bp.loopFraction = 0.5; // loop-heavy so we surely get one
    const Program p = buildProgram(bp);

    const auto t = generateTrace(p, smallGen(8, 20'000), "t");
    // For every loop site: consecutive executions form runs of
    // (trip-1) taken followed by one not-taken.
    std::unordered_map<Addr, std::uint16_t> site_trip;
    for (const auto &fn : p.functions)
        for (const auto &bb : fn.blocks)
            if (bb.term.kind == trace::InstKind::kCondBranch &&
                bb.term.cond == CondBehavior::kLoop)
                site_trip[bb.termIa()] = bb.term.loopTrip;
    ASSERT_FALSE(site_trip.empty());

    std::unordered_map<Addr, std::uint32_t> run;
    for (const auto &i : t) {
        auto it = site_trip.find(i.ia);
        if (it == site_trip.end() || i.kind != trace::InstKind::kCondBranch)
            continue;
        if (i.taken) {
            ++run[i.ia];
            ASSERT_LT(run[i.ia], it->second) << "overran trip count";
        } else {
            run[i.ia] = 0;
        }
    }
}

TEST(Generator, TransactionBudgetBoundsCallDepth)
{
    const Program p = smallProgram(4);
    GenParams g = smallGen(9, 60'000);
    g.maxTransactionInsts = 500;
    const auto t = generateTrace(p, g, "t");
    EXPECT_TRUE(t.consistent());
    // The budget is a soft cap (in-flight loops and frames drain
    // normally), but it must still break the walk into transactions.
    std::uint64_t calls = 0;
    for (const auto &i : t)
        if (i.ia == g.dispatcherBase + 4)
            ++calls;
    EXPECT_GT(calls, 10u);
}

TEST(Generator, PhaseRotationShiftsHotRoots)
{
    const Program p = smallProgram(5);
    GenParams g = smallGen(10, 30'000);
    g.phaseLength = 10'000;
    g.phaseStride = 4;
    const auto t = generateTrace(p, g, "t");

    // Collect the transaction roots called from the dispatcher in the
    // first and last phase; rotation should change the set.
    std::vector<Addr> first, last;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].ia != g.dispatcherBase + 4)
            continue;
        if (i < 10'000)
            first.push_back(t[i].target());
        else if (i > 20'000)
            last.push_back(t[i].target());
    }
    ASSERT_FALSE(first.empty());
    ASSERT_FALSE(last.empty());
    bool fresh_root = false;
    for (Addr r : last)
        if (std::find(first.begin(), first.end(), r) == first.end())
            fresh_root = true;
    EXPECT_TRUE(fresh_root);
}

/** Fold one value into a running content digest (a multiply-xorshift
 * step: every bit of @p v reaches every bit of the state). */
std::uint64_t
foldWord(std::uint64_t h, std::uint64_t v)
{
    h = (h ^ v) * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 31);
}

/** Digest of a trace's content: its length and every field of every
 * instruction, folded as values (not bytes), so the digest is
 * independent of how an Instruction is laid out in memory. */
std::uint64_t
contentDigest(const trace::Trace &t)
{
    std::uint64_t h = foldWord(0, t.size());
    for (const auto &i : t) {
        h = foldWord(h, i.ia);
        h = foldWord(h, i.target());
        h = foldWord(h, i.dataAddr());
        h = foldWord(h, i.length);
        h = foldWord(h, static_cast<std::uint64_t>(i.kind));
        h = foldWord(h, i.taken ? 1 : 0);
    }
    return h;
}

/** The generator's output for every paper suite, pinned by content.
 * Any change to the walker, the program builder or a suite recipe that
 * alters even one instruction moves a digest here (bump
 * kGeneratorVersion when that is intended); a change to how an
 * Instruction is stored must leave every digest as it is. */
TEST(Generator, SuiteContentDigestIsPinned)
{
    struct Pin
    {
        const char *suite;
        std::uint64_t insts;
        std::uint64_t digest;
    };
    static constexpr Pin kPins[] = {
            {"cb84", 16002, 0x7b1467940221cc1eull},
            {"cicsdb2", 16002, 0x536996cf5bcf7fb2ull},
            {"ims", 16000, 0xe2df388f1e4333d9ull},
            {"cbl", 16000, 0x992525b625f3e1edull},
            {"wasdb_cbw2", 32008, 0x817f92ccd76bcfc5ull},
            {"trade6", 32003, 0x067ce3e2067f889aull},
            {"tpf", 16001, 0x1c445069302c0bd3ull},
            {"appserv", 16004, 0x4a4511abec17f8aeull},
            {"dbserv", 16007, 0x59df6afa65487751ull},
            {"daytrader_app", 20200, 0x2584df042d892088ull},
            {"daytrader_db", 16003, 0xfac2f5d9ad80f962ull},
            {"informix", 16004, 0xe55e7a39bf2ef92bull},
            {"ztrade6", 20958, 0x5c3ab9fa54004011ull},
    };
    const auto &suites = paperSuites();
    ASSERT_EQ(suites.size(), std::size(kPins));
    for (std::size_t s = 0; s < suites.size(); ++s) {
        const auto t = makeSuiteTrace(suites[s], 0.01);
        EXPECT_EQ(suites[s].name, kPins[s].suite);
        EXPECT_EQ(t.size(), kPins[s].insts) << suites[s].name;
        EXPECT_EQ(contentDigest(t), kPins[s].digest) << suites[s].name;
        EXPECT_TRUE(t.consistent()) << suites[s].name;
    }
}

} // namespace
} // namespace zbp::workload
