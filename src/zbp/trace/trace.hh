/**
 * @file
 * Trace container: an ordered sequence of retired instructions plus a
 * human-readable name, with validation of control-flow consistency.
 *
 * Storage is either owned (a vector filled by push()) or a shared
 * read-only view of externally owned memory (adoptView() — used by the
 * mmap-backed trace cache so parallel jobs and fused sweeps consume one
 * physical copy).  Copying a view shares the storage; only owned traces
 * deep-copy.  All read accessors go through one flat (pointer, count)
 * pair, so consumers never pay for the distinction.
 */

#ifndef ZBP_TRACE_TRACE_HH
#define ZBP_TRACE_TRACE_HH

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "zbp/common/log.hh"
#include "zbp/trace/instruction.hh"

namespace zbp::trace
{

/** An instruction trace as consumed by the core model. */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string name_) : traceName(std::move(name_)) {}

    Trace(const Trace &o)
        : traceName(o.traceName), insts(o.insts), keepalive(o.keepalive)
    {
        resyncFrom(o);
    }

    Trace &
    operator=(const Trace &o)
    {
        if (this != &o) {
            traceName = o.traceName;
            insts = o.insts;
            keepalive = o.keepalive;
            resyncFrom(o);
        }
        return *this;
    }

    Trace(Trace &&o) noexcept
        : traceName(std::move(o.traceName)), insts(std::move(o.insts)),
          keepalive(std::move(o.keepalive))
    {
        resyncFrom(o);
        o.release();
    }

    Trace &
    operator=(Trace &&o) noexcept
    {
        if (this != &o) {
            traceName = std::move(o.traceName);
            insts = std::move(o.insts);
            keepalive = std::move(o.keepalive);
            resyncFrom(o);
            o.release();
        }
        return *this;
    }

    /**
     * Wrap externally owned, immutable instruction storage without
     * copying (e.g. a memory-mapped trace file).  @p keepalive owns the
     * storage and is released when the last sharing Trace goes away;
     * @p d must stay valid for its lifetime.  The result rejects push().
     */
    static Trace
    adoptView(std::string name, const Instruction *d, std::size_t n,
              std::shared_ptr<const void> keepalive)
    {
        Trace t(std::move(name));
        t.keepalive = std::move(keepalive);
        t.data_ = d;
        t.n_ = n;
        return t;
    }

    void
    reserve(std::size_t n)
    {
        ZBP_ASSERT(ownsStorage(), "cannot grow a view-backed trace");
        insts.reserve(n);
        data_ = insts.data();
    }

    void
    push(const Instruction &i)
    {
        ZBP_ASSERT(ownsStorage(), "cannot grow a view-backed trace");
        insts.push_back(i);
        data_ = insts.data();
        n_ = insts.size();
    }

    const Instruction &operator[](std::size_t i) const { return data_[i]; }
    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }

    const std::string &name() const { return traceName; }
    void setName(std::string n) { traceName = std::move(n); }

    const Instruction *begin() const { return data_; }
    const Instruction *end() const { return data_ + n_; }
    const Instruction *data() const { return data_; }

    /** False when the instruction storage is a shared read-only view
     * (copies of a view alias the same memory). */
    bool ownsStorage() const { return keepalive == nullptr; }

    /**
     * Check the control-flow invariant: each instruction must start at
     * the previous instruction's nextIa().  Returns the index of the
     * first violation, or size() when consistent.
     */
    std::size_t
    firstDiscontinuity() const
    {
        for (std::size_t i = 1; i < n_; ++i)
            if (data_[i].ia != data_[i - 1].nextIa())
                return i;
        return n_;
    }

    bool consistent() const { return firstDiscontinuity() == n_; }

  private:
    /** Point the flat view at the right storage after copy/move: views
     * alias the source's memory, owners point at their own vector. */
    void
    resyncFrom(const Trace &src) noexcept
    {
        if (keepalive != nullptr) {
            data_ = src.data_;
            n_ = src.n_;
        } else {
            data_ = insts.data();
            n_ = insts.size();
        }
    }

    void
    release() noexcept
    {
        data_ = nullptr;
        n_ = 0;
        keepalive.reset();
    }

    std::string traceName;
    std::vector<Instruction> insts; ///< owned storage (empty for views)
    std::shared_ptr<const void> keepalive; ///< view storage owner
    const Instruction *data_ = nullptr;
    std::size_t n_ = 0;
};

/** Shared read-only handle to a trace, as passed between the workload
 * cache, the suite runners and the gang-chunked sweep executor. */
using TraceHandle = std::shared_ptr<const Trace>;

/** Non-owning handle over a caller-owned trace (shared_ptr aliasing
 * form with no control block): zero-copy adaptation of legacy
 * by-reference APIs to handle-consuming ones.  @p t must outlive every
 * copy of the handle. */
inline TraceHandle
borrowTrace(const Trace &t)
{
    return TraceHandle(std::shared_ptr<const void>(), &t);
}

} // namespace zbp::trace

#endif // ZBP_TRACE_TRACE_HH
