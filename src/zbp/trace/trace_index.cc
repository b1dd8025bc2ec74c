#include "zbp/trace/trace_index.hh"

namespace zbp::trace
{

TraceIndex::TraceIndex(const Trace &t) : n(t.size())
{
    for (const Instruction &inst : t)
        nBranches += inst.branch() ? 1 : 0;
}

} // namespace zbp::trace
