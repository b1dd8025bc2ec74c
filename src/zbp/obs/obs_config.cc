#include "zbp/obs/obs_config.hh"

#include <memory>

#include "zbp/common/env.hh"

namespace zbp::obs
{

namespace
{

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
    c.intervalInsts = envSetting("ZBP_OBS_INTERVAL", std::uint64_t{0},
                                 [](const char *s, std::uint64_t &v) {
        return parseNumber(s, v) && v >= 1;
    });
    c.intervalPath = envString("ZBP_OBS_OUT");
    if (c.intervalInsts > 0 && c.intervalPath.empty())
        c.intervalPath = "obs_intervals.jsonl";
    c.tracePath = envString("ZBP_OBS_TRACE");
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
