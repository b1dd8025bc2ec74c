#include "zbp/obs/trace_writer.hh"

#include <cinttypes>
#include <cmath>

#include "zbp/common/log.hh"
#include "zbp/util/json.hh"

namespace zbp::obs
{

namespace
{

/** Timestamps render as plain decimals (no exponent — some trace-event
 * consumers reject 1e+06 in ts/dur). */
std::string
decimal(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

} // namespace

std::string
jsonNum(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    return '"' + json::escape(s) + '"';
}

TraceWriter::TraceWriter(const std::string &path, std::uint64_t max_events)
    : filePath(path), epoch(std::chrono::steady_clock::now()),
      maxEvents(max_events)
{
    f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot create trace file '", path, "'");
    std::fputs("{\"traceEvents\":[\n", f);
    // Process metadata names the two tracks; sort indexes pin the
    // orchestration track above the microarchitecture one.
    std::lock_guard<std::mutex> lk(mu);
    emitLocked("{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"name\":\"process_name\","
               "\"args\":{\"name\":\"runner orchestration\"}}");
    emitLocked("{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"name\":\"process_sort_index\",\"args\":{\"sort_index\":0}}");
    emitLocked("{\"ph\":\"M\",\"pid\":2,\"tid\":0,"
               "\"name\":\"process_name\","
               "\"args\":{\"name\":\"microarchitecture (ts = cycles)\"}}");
    emitLocked("{\"ph\":\"M\",\"pid\":2,\"tid\":0,"
               "\"name\":\"process_sort_index\",\"args\":{\"sort_index\":1}}");
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::close()
{
    std::lock_guard<std::mutex> lk(mu);
    if (closed || f == nullptr)
        return;
    // A final metadata record makes truncation visible in the file
    // itself (and doubles as the list's last element — no trailing
    // comma bookkeeping needed elsewhere).
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                 "\"name\":\"zbp_obs_summary\",\"args\":{\"events\":%" PRIu64
                 ",\"dropped\":%" PRIu64 "}}\n]}\n",
                 nEvents, nDropped);
    std::fclose(f);
    f = nullptr;
    closed = true;
}

void
TraceWriter::flush()
{
    std::lock_guard<std::mutex> lk(mu);
    if (!closed && f != nullptr)
        std::fflush(f);
}

std::uint32_t
TraceWriter::newLane(std::uint32_t pid, const std::string &name)
{
    std::uint32_t tid;
    {
        std::lock_guard<std::mutex> lk(mu);
        tid = nextTid++;
    }
    std::string ev = "{\"ph\":\"M\",\"pid\":" + jsonNum(std::uint64_t{pid}) +
                     ",\"tid\":" + jsonNum(std::uint64_t{tid}) +
                     ",\"name\":\"thread_name\",\"args\":{\"name\":" +
                     jsonStr(name) + "}}";
    emit(ev);
    return tid;
}

double
TraceWriter::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
}

std::string
TraceWriter::header(std::uint32_t pid, std::uint32_t tid, const char *ph,
                    const char *cat, const std::string &name,
                    double ts) const
{
    return std::string("{\"ph\":\"") + ph + "\",\"pid\":" +
           jsonNum(std::uint64_t{pid}) + ",\"tid\":" +
           jsonNum(std::uint64_t{tid}) + ",\"cat\":\"" + cat +
           "\",\"name\":" + jsonStr(name) + ",\"ts\":" + decimal(ts);
}

void
TraceWriter::appendArgs(std::string &ev, const TraceArgs &args)
{
    if (args.empty())
        return;
    ev += ",\"args\":{";
    bool first = true;
    for (const auto &[k, v] : args) {
        if (!first)
            ev += ',';
        first = false;
        ev += '"';
        ev += k; // keys are compile-time literals, never need escaping
        ev += "\":";
        ev += v;
    }
    ev += '}';
}

void
TraceWriter::span(std::uint32_t pid, std::uint32_t tid, const char *cat,
                  const std::string &name, double ts, double dur,
                  const TraceArgs &args)
{
    std::string ev = header(pid, tid, "X", cat, name, ts);
    ev += ",\"dur\":" + decimal(dur);
    appendArgs(ev, args);
    ev += '}';
    emit(ev);
}

void
TraceWriter::instant(std::uint32_t pid, std::uint32_t tid, const char *cat,
                     const std::string &name, double ts,
                     const TraceArgs &args)
{
    std::string ev = header(pid, tid, "i", cat, name, ts);
    ev += ",\"s\":\"t\"";
    appendArgs(ev, args);
    ev += '}';
    emit(ev);
}

void
TraceWriter::emit(const std::string &event_json)
{
    std::lock_guard<std::mutex> lk(mu);
    emitLocked(event_json);
}

void
TraceWriter::emitLocked(const std::string &event_json)
{
    if (closed || f == nullptr)
        return;
    if (nEvents >= maxEvents) {
        ++nDropped;
        return;
    }
    std::fputs(event_json.c_str(), f);
    std::fputs(",\n", f);
    ++nEvents;
}

std::uint64_t
TraceWriter::events() const
{
    std::lock_guard<std::mutex> lk(mu);
    return nEvents;
}

std::uint64_t
TraceWriter::dropped() const
{
    std::lock_guard<std::mutex> lk(mu);
    return nDropped;
}

} // namespace zbp::obs
