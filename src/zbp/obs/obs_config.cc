#include "zbp/obs/obs_config.hh"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "zbp/common/log.hh"

namespace zbp::obs
{

namespace
{

std::uint64_t
u64FromEnv(const char *var, std::uint64_t dflt)
{
    const char *s = std::getenv(var);
    if (s == nullptr || *s == '\0')
        return dflt;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || v < 1) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("ignoring bad ", var, " '", s, "'");
        return dflt;
    }
    return v;
}

std::string
strFromEnv(const char *var)
{
    const char *s = std::getenv(var);
    return s == nullptr ? std::string() : std::string(s);
}

/** Owns the global writers so one static destructor closes both (the
 * trace footer lands on normal exit). */
struct GlobalObs
{
    ObsConfig cfg;
    std::unique_ptr<TraceWriter> tracer;
    std::unique_ptr<IntervalWriter> intervals;

    GlobalObs()
    {
        cfg = obsConfigFromEnv();
        if (cfg.tracingEnabled())
            tracer = std::make_unique<TraceWriter>(cfg.tracePath);
        if (cfg.samplingEnabled())
            intervals = std::make_unique<IntervalWriter>(cfg.intervalPath);
    }
};

GlobalObs &
instance()
{
    static GlobalObs g;
    return g;
}

} // namespace

ObsConfig
obsConfigFromEnv()
{
    ObsConfig c;
    c.intervalInsts = u64FromEnv("ZBP_OBS_INTERVAL", 0);
    c.intervalPath = strFromEnv("ZBP_OBS_OUT");
    if (c.intervalInsts > 0 && c.intervalPath.empty())
        c.intervalPath = "obs_intervals.jsonl";
    c.tracePath = strFromEnv("ZBP_OBS_TRACE");
    return c;
}

TraceWriter *
globalTraceWriter()
{
    return instance().tracer.get();
}

IntervalWriter *
globalIntervalWriter()
{
    return instance().intervals.get();
}

std::uint64_t
globalIntervalInsts()
{
    return instance().cfg.intervalInsts;
}

void
obsShutdown()
{
    GlobalObs &g = instance();
    if (g.tracer)
        g.tracer->close();
    if (g.intervals)
        g.intervals->close();
}

void
obsFlush()
{
    GlobalObs &g = instance();
    if (g.tracer)
        g.tracer->flush();
    if (g.intervals)
        g.intervals->flush();
}

} // namespace zbp::obs
