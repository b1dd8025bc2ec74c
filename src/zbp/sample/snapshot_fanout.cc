#include "zbp/sample/snapshot_fanout.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace zbp::sample
{

std::vector<IntervalPlan>
planIntervals(std::size_t trace_len, const SampleParams &p)
{
    p.validate();
    if (trace_len == 0)
        throw std::invalid_argument("sample: empty trace");

    const std::size_t interval = p.intervalInsts;
    const std::size_t warmup =
            p.mode == SampleMode::kFast ? p.warmupInsts : 0;
    const std::size_t window = p.measured();

    std::vector<IntervalPlan> plan;
    for (std::size_t k = 0; k * interval < trace_len; ++k) {
        IntervalPlan iv;
        iv.index = k;
        iv.snapshotAt = k * interval;
        iv.measureBegin = std::min(iv.snapshotAt + warmup, trace_len);
        iv.measureEnd = std::min(iv.measureBegin + window, trace_len);
        if (iv.measureBegin < iv.measureEnd)
            plan.push_back(iv);
    }
    return plan;
}

FanoutResult
runWarmupFanout(cpu::CoreModel &m, const trace::Trace &t,
                const std::vector<IntervalPlan> &plan, SampleMode mode,
                const SnapshotSink &sink)
{
    const auto t0 = std::chrono::steady_clock::now();

    m.beginRun(t);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (mode == SampleMode::kExact)
            m.advance(plan[i].snapshotAt);
        else
            m.advanceFunctional(plan[i].snapshotAt);
        ckpt::SnapshotBuffer snap;
        if (plan[i].snapshotAt > 0) { // interval 0 starts from beginRun
            ckpt::Writer w;
            m.saveState(w);
            w.finish();
            snap = ckpt::SnapshotBuffer::capture(w);
        }
        sink(i, std::move(snap));
    }

    FanoutResult out;
    out.instructions = m.decodedInstructions();
    out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    out.instsPerSec = out.seconds > 0.0
                              ? static_cast<double>(out.instructions) /
                                        out.seconds
                              : 0.0;
    return out;
}

} // namespace zbp::sample
