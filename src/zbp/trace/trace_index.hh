/**
 * @file
 * The former per-trace sidecar, under its old names, for the benchmark
 * harness (perfbench/) only: it builds one per trace, reads size() and
 * branches(), and hands it to CoreModel::setTraceIndex and
 * CmpModel::setTraceIndex, which ignore it.  It stores no
 * per-instruction data; every library path decodes from the trace
 * itself.  Delete it with those calls.
 */

#ifndef ZBP_TRACE_TRACE_INDEX_HH
#define ZBP_TRACE_TRACE_INDEX_HH

#include <cstddef>
#include <cstdint>

#include "zbp/trace/trace.hh"

namespace zbp::trace
{

class TraceIndex
{
  public:
    explicit TraceIndex(const Trace &t);

    std::size_t size() const { return n; }
    std::uint64_t branches() const { return nBranches; }

  private:
    std::size_t n;
    std::uint64_t nBranches = 0;
};

} // namespace zbp::trace

#endif // ZBP_TRACE_TRACE_INDEX_HH
