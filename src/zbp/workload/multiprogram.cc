#include "zbp/workload/multiprogram.hh"

#include "zbp/common/log.hh"

namespace zbp::workload
{

trace::Trace
multiprogram(const std::vector<trace::Trace> &threads,
             std::uint64_t quantum, const std::string &name)
{
    ZBP_ASSERT(!threads.empty(), "no threads to interleave");
    ZBP_ASSERT(quantum >= 1, "quantum must be at least 1");

    trace::Trace out(name);
    std::uint64_t total = 0;
    for (const auto &t : threads)
        total += t.size();
    out.reserve(total + total / quantum + 8);

    std::vector<std::size_t> pos(threads.size(), 0);
    std::size_t cur = 0;
    std::size_t exhausted = 0;
    for (const auto &t : threads)
        exhausted += t.empty() ? 1 : 0;

    while (exhausted < threads.size()) {
        const trace::Trace &t = threads[cur];
        std::size_t &p = pos[cur];
        if (p < t.size()) {
            const std::size_t end =
                    std::min<std::size_t>(p + quantum, t.size());
            for (; p < end; ++p)
                out.push(t[p]);
            if (p >= t.size())
                ++exhausted;
        }

        // Find the next runnable thread.
        std::size_t next = cur;
        for (std::size_t i = 1; i <= threads.size(); ++i) {
            const std::size_t cand = (cur + i) % threads.size();
            if (pos[cand] < threads[cand].size()) {
                next = cand;
                break;
            }
        }
        if (next == cur) {
            if (p >= t.size())
                break; // everything drained
            continue;  // sole runnable thread: no switch, no glue
        }

        // Synthetic dispatcher branch gluing the two slices together.
        if (!out.empty() && pos[next] < threads[next].size()) {
            trace::Instruction glue;
            glue.ia = out[out.size() - 1].nextIa();
            glue.length = 4;
            glue.kind = trace::InstKind::kIndirect;
            glue.taken = true;
            glue.setTarget(threads[next][pos[next]].ia);
            out.push(glue);
        }
        cur = next;
    }
    return out;
}

} // namespace zbp::workload
