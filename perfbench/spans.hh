/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * A span is one call into a layer's public entry point: a dotted name
 * whose first component is the layer ("cpu.advance" belongs to `cpu`),
 * start and end on the steady clock, the span that caused it, and the
 * repetition ("run") it belongs to.  Spans are kept in memory while the
 * workload runs and written out once, as Chrome trace-event JSON, when
 * the benchmark ends, so recording costs a clock read and a locked
 * push per call.
 */

#ifndef ZBP_PERFBENCH_SPANS_HH
#define ZBP_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

struct Span
{
    const char *name = ""; ///< static string, "layer.call"
    double startUs = 0.0;  ///< since the log's epoch
    double endUs = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t run = 0;    ///< repetition the span belongs to
    std::uint32_t tid = 0;    ///< small per-thread ordinal
};

class SpanLog
{
  public:
    SpanLog();

    /** Repetition id stamped on spans that open from now on. */
    void setRun(std::uint64_t r) { run = r; }
    std::uint64_t currentRun() const { return run; }

    double nowUs() const;

    /** Spans of repetition @p r, in close order. */
    std::vector<Span> spansOf(std::uint64_t r) const;

    /** Write every span as Chrome trace-event JSON to @p path; false on
     * an I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    friend class Scope;
    void close(const Span &s);

    Clock::time_point epoch;
    std::uint64_t run = 0;
    mutable std::mutex mu;
    std::vector<Span> spans; ///< guarded by mu
    std::uint64_t nextId = 1; ///< guarded by mu
};

/**
 * RAII span: opens on construction, closes on destruction.  The parent
 * is the innermost open Scope of the calling thread unless @p parent is
 * given (work handed to a worker thread names its caller explicitly).
 */
class Scope
{
  public:
    static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

    Scope(SpanLog &log, const char *name,
          std::uint64_t parent = kInherit);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return s.id; }

  private:
    SpanLog &log;
    Span s;
    std::uint64_t outer; ///< enclosing scope of this thread
};

/** Per span name: summed self time in seconds (span duration minus the
 * union of its children's intervals, clipped to the span). */
std::map<std::string, double> selfSeconds(const std::vector<Span> &spans);

/** Per span name: summed wall duration in seconds. */
std::map<std::string, double> totalSeconds(const std::vector<Span> &spans);

/** Per span name: number of spans. */
std::map<std::string, double> spanCounts(const std::vector<Span> &spans);

} // namespace perfbench

#endif // ZBP_PERFBENCH_SPANS_HH
