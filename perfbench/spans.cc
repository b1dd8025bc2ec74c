#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "zbp/runner/jsonl_sink.hh"

namespace perfbench
{

namespace
{

thread_local std::uint64_t currentSpan = 0;

std::uint32_t
threadOrdinal()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t tid = next.fetch_add(1);
    return tid;
}

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

SpanLog::SpanLog() : epoch(Clock::now()) {}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
            .count();
}

void
SpanLog::close(const Span &s)
{
    std::lock_guard<std::mutex> lk(mu);
    spans.push_back(s);
}

std::vector<Span>
SpanLog::spansOf(std::uint64_t r) const
{
    std::lock_guard<std::mutex> lk(mu);
    std::vector<Span> out;
    for (const Span &s : spans)
        if (s.run == r)
            out.push_back(s);
    return out;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> lk(mu);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (const Span &s : spans) {
        const std::string name(s.name);
        const std::string layer = name.substr(0, name.find('.'));
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,\"run\":%llu}}",
                     first ? "" : ",",
                     zbp::runner::JsonObject::escape(name).c_str(),
                     zbp::runner::JsonObject::escape(layer).c_str(),
                     s.startUs, s.endUs - s.startUs, s.tid,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.run));
        first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

Scope::Scope(SpanLog &l, const char *name, std::uint64_t parent)
    : log(l), outer(currentSpan)
{
    s.name = name;
    s.parent = parent == kInherit ? currentSpan : parent;
    s.tid = threadOrdinal();
    {
        std::lock_guard<std::mutex> lk(log.mu);
        s.id = log.nextId++;
        s.run = log.run;
    }
    currentSpan = s.id;
    s.startUs = log.nowUs();
}

Scope::~Scope()
{
    s.endUs = log.nowUs();
    currentSpan = outer;
    log.close(s);
}

std::map<std::string, double>
selfSeconds(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> kids;
    for (const Span &s : spans)
        if (s.parent != 0)
            kids[s.parent].push_back(&s);

    std::map<std::string, double> out;
    for (const Span &s : spans) {
        // Union of the children's intervals clipped to the span; children
        // on worker threads may overlap each other.
        std::vector<std::pair<double, double>> iv;
        if (const auto it = kids.find(s.id); it != kids.end())
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->startUs, s.startUs),
                                std::min(c->endUs, s.endUs));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (const auto &[a, b] : iv) {
            if (b <= a)
                continue;
            if (a > hi) {
                covered += std::max(0.0, hi - lo);
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += std::max(0.0, hi - lo);
        out[s.name] += (s.endUs - s.startUs - covered) * 1e-6;
    }
    return out;
}

std::map<std::string, double>
totalSeconds(const std::vector<Span> &spans)
{
    std::map<std::string, double> out;
    for (const Span &s : spans)
        out[s.name] += (s.endUs - s.startUs) * 1e-6;
    return out;
}

std::map<std::string, double>
spanCounts(const std::vector<Span> &spans)
{
    std::map<std::string, double> out;
    for (const Span &s : spans)
        out[s.name] += 1.0;
    return out;
}

} // namespace perfbench
