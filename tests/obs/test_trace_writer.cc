/**
 * @file
 * TraceWriter tests: the emitted file must be syntactically valid JSON
 * in the Chrome trace-event "JSON Object Format", carry both tracks
 * (orchestration pid and microarchitecture pid), escape hostile
 * strings, honour the event cap, and close idempotently.
 *
 * The schema check parses the file with the repo's own strict JSON
 * reader (util/json.hh) and asserts on event fields.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "zbp/obs/trace_writer.hh"
#include "zbp/util/json.hh"

namespace zbp::obs
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "zbp_obs_" + name + "_" +
           std::to_string(::getpid()) + ".json";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Parse @p path and return its traceEvents array (asserting shape). */
std::vector<json::Value>
loadTraceEvents(const std::string &path)
{
    const auto root = json::parse(slurp(path));
    EXPECT_TRUE(root) << "trace file is not valid JSON";
    if (!root)
        return {};
    EXPECT_EQ(root->kind, json::Value::Kind::kObject);
    const json::Value *events = root->find("traceEvents");
    EXPECT_NE(events, nullptr);
    if (events == nullptr || events->kind != json::Value::Kind::kArray)
        return {};
    return events->items;
}

// ---- tests ----------------------------------------------------------

TEST(TraceWriter, EmitsValidJsonWithBothTracks)
{
    const auto path = tempPath("tracks");
    {
        TraceWriter tw(path);
        const auto rlane =
                tw.newLane(TraceWriter::kPidRunner, "job worker");
        const auto ulane =
                tw.newLane(TraceWriter::kPidUarch, "core0 preload");
        tw.span(TraceWriter::kPidRunner, rlane, "job", "job:tpf", 10.0,
                250.0, {{"ok", "true"}, {"attempts", jsonNum(
                                std::uint64_t{1})}});
        tw.instant(TraceWriter::kPidRunner, rlane, "job",
                   "job:retry-backoff", 300.0);
        tw.span(TraceWriter::kPidUarch, ulane, "preload",
                "search:full", 1000.0, 64.0,
                {{"rows", jsonNum(std::uint64_t{8})}});
        tw.instant(TraceWriter::kPidUarch, ulane, "fault",
                   "fault:btb2", 1200.0);
        tw.close();
    }

    const auto events = loadTraceEvents(path);
    ASSERT_FALSE(events.empty());

    std::set<double> span_pids;
    std::size_t n_spans = 0, n_instants = 0, n_meta = 0;
    for (const auto &ev : events) {
        ASSERT_EQ(ev.kind, json::Value::Kind::kObject);
        const json::Value *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        ASSERT_NE(ev.find("name"), nullptr);
        if (ph->text == "X") {
            ++n_spans;
            span_pids.insert(*ev.find("pid")->num());
            EXPECT_NE(ev.find("ts"), nullptr);
            EXPECT_NE(ev.find("dur"), nullptr);
            EXPECT_NE(ev.find("tid"), nullptr);
        } else if (ph->text == "i") {
            ++n_instants;
            EXPECT_NE(ev.find("ts"), nullptr);
            ASSERT_NE(ev.find("s"), nullptr);
            EXPECT_EQ(ev.find("s")->text, "t");
        } else {
            EXPECT_EQ(ph->text, "M");
            ++n_meta;
        }
    }
    EXPECT_EQ(n_spans, 2u);
    EXPECT_EQ(n_instants, 2u);
    EXPECT_GE(n_meta, 4u); // 2 process names + sort indexes + lanes
    // Both tracks present: one span on each synthetic process.
    EXPECT_EQ(span_pids.size(), 2u);
    EXPECT_TRUE(span_pids.count(TraceWriter::kPidRunner));
    EXPECT_TRUE(span_pids.count(TraceWriter::kPidUarch));

    std::remove(path.c_str());
}

TEST(TraceWriter, EscapesHostileStrings)
{
    const auto path = tempPath("escape");
    {
        TraceWriter tw(path);
        const auto lane = tw.newLane(TraceWriter::kPidRunner,
                                     "lane \"quoted\"\nnewline");
        tw.span(TraceWriter::kPidRunner, lane, "job",
                "name with \\ backslash and \t tab \x01 ctrl", 0.0, 1.0,
                {{"path", jsonStr("C:\\traces\\a\"b\".zbpt")}});
        tw.close();
    }
    const auto events = loadTraceEvents(path);
    ASSERT_FALSE(events.empty()); // parse succeeded => escaping worked

    // Every hostile byte decodes back exactly, control bytes included.
    bool found = false;
    for (const auto &ev : events) {
        if (ev["name"].text.find("backslash") == std::string::npos)
            continue;
        found = true;
        EXPECT_EQ(ev["name"].text,
                  "name with \\ backslash and \t tab \x01 ctrl");
        EXPECT_EQ(ev["args"]["path"].text, "C:\\traces\\a\"b\".zbpt");
    }
    EXPECT_TRUE(found);
    std::remove(path.c_str());
}

TEST(TraceWriter, EventCapCountsDrops)
{
    const auto path = tempPath("cap");
    {
        TraceWriter tw(path, 4);
        const auto lane = tw.newLane(TraceWriter::kPidRunner, "w");
        for (int i = 0; i < 50; ++i)
            tw.instant(TraceWriter::kPidRunner, lane, "c", "tick",
                       static_cast<double>(i));
        EXPECT_GT(tw.dropped(), 0u);
        EXPECT_LE(tw.events(), 4u + 8u); // cap + metadata headroom
        tw.close();
    }
    // The capped file is still valid JSON and records the drop count.
    bool summary_found = false;
    for (const auto &ev : loadTraceEvents(path)) {
        const json::Value *name = ev.find("name");
        if (name == nullptr || name->text != "zbp_obs_summary")
            continue;
        summary_found = true;
        const json::Value *args = ev.find("args");
        ASSERT_NE(args, nullptr);
        ASSERT_NE(args->find("dropped"), nullptr);
        EXPECT_GT(args->find("dropped")->num().value_or(0.0), 0.0);
    }
    EXPECT_TRUE(summary_found);
    std::remove(path.c_str());
}

TEST(TraceWriter, CloseIsIdempotentAndFileStaysValid)
{
    const auto path = tempPath("close");
    TraceWriter tw(path);
    tw.instant(TraceWriter::kPidRunner,
               tw.newLane(TraceWriter::kPidRunner, "w"), "c", "once",
               1.0);
    tw.close();
    tw.close(); // second close must not append anything
    EXPECT_TRUE(json::parse(slurp(path)));
    std::remove(path.c_str());
}

TEST(TraceWriter, NowUsIsMonotonic)
{
    const auto path = tempPath("clock");
    TraceWriter tw(path);
    const double a = tw.nowUs();
    const double b = tw.nowUs();
    EXPECT_GE(b, a);
    EXPECT_GE(a, 0.0);
    tw.close();
    std::remove(path.c_str());
}

} // namespace
} // namespace zbp::obs
