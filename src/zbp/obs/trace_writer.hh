/**
 * @file
 * TraceWriter — Chrome trace-event / Perfetto-loadable timeline output.
 *
 * One writer owns one JSON file of the "JSON Object Format":
 * `{"traceEvents":[...]}`, with complete-duration events (ph "X"),
 * instant events (ph "i") and metadata events (ph "M").  Load the file
 * in chrome://tracing or ui.perfetto.dev.
 *
 * Two tracks, separated by synthetic process ids:
 *  - kPidRunner ("orchestration"): spans stamped in wall-clock
 *    microseconds since the writer was created — job queue/load/run
 *    phases, gang chunks, CMP windows, trace-cache hits.
 *  - kPidUarch ("microarchitecture"): spans stamped in *simulation
 *    cycles* — bulk-preload searches, arbiter bank waits, fault
 *    injections.  Cycle time and wall time never share a track, so the
 *    unit mismatch is harmless (each process has its own timeline).
 *
 * Zero-overhead contract (same as zbp::fault): components hold a plain
 * `TraceWriter *` that is null unless tracing is enabled; every hook is
 * a single null-pointer test on the hot path.  Emission itself is
 * mutex-serialised and O(event text); a hard event cap (default 1M)
 * bounds file size — events past the cap are counted as dropped, and
 * the count is recorded in the file's metadata.
 */

#ifndef ZBP_OBS_TRACE_WRITER_HH
#define ZBP_OBS_TRACE_WRITER_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace zbp::obs
{

/** One pre-rendered JSON key/value pair for an event's args object:
 * .second must already be valid JSON (use jsonNum / jsonStr). */
using TraceArg = std::pair<const char *, std::string>;
using TraceArgs = std::vector<TraceArg>;

/** Render a number / string as a JSON value for TraceArg. */
std::string jsonNum(std::uint64_t v);
std::string jsonNum(double v);
std::string jsonStr(const std::string &s);

class TraceWriter
{
  public:
    /** Synthetic pids separating the two timelines. */
    static constexpr std::uint32_t kPidRunner = 1; ///< wall-clock µs
    static constexpr std::uint32_t kPidUarch = 2;  ///< simulation cycles

    /** Opens @p path for writing and emits the header + process
     * metadata.  fatal() when the file cannot be created. */
    explicit TraceWriter(const std::string &path,
                         std::uint64_t max_events = 1'000'000);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Write the closing bracket and flush; idempotent.  Called by the
     * destructor; call earlier to validate the file mid-process. */
    void close();

    /** fflush() the open file without writing the footer: events so far
     * survive an abnormal exit (Perfetto tolerates the missing `]`). */
    void flush();

    /** Allocate a timeline lane (a tid) under @p pid and emit its
     * thread_name metadata.  Thread-safe. */
    std::uint32_t newLane(std::uint32_t pid, const std::string &name);

    /** Wall-clock microseconds since this writer was created (the
     * orchestration track's clock). */
    double nowUs() const;

    /** Complete-duration event (ph "X"): [ts, ts+dur] on lane
     * (pid, tid).  @p ts / @p dur are µs on the runner track, cycles on
     * the uarch track. */
    void span(std::uint32_t pid, std::uint32_t tid, const char *cat,
              const std::string &name, double ts, double dur,
              const TraceArgs &args = {});

    /** Instant event (ph "i", thread scope). */
    void instant(std::uint32_t pid, std::uint32_t tid, const char *cat,
                 const std::string &name, double ts,
                 const TraceArgs &args = {});

    const std::string &path() const { return filePath; }
    std::uint64_t events() const;
    std::uint64_t dropped() const;

  private:
    void emit(const std::string &event_json); ///< caller holds no lock
    void emitLocked(const std::string &event_json);
    std::string header(std::uint32_t pid, std::uint32_t tid,
                       const char *ph, const char *cat,
                       const std::string &name, double ts) const;
    static void appendArgs(std::string &ev, const TraceArgs &args);

    std::string filePath;
    std::FILE *f = nullptr;
    mutable std::mutex mu;
    std::chrono::steady_clock::time_point epoch;
    std::uint64_t maxEvents;
    std::uint64_t nEvents = 0;
    std::uint64_t nDropped = 0;
    std::uint32_t nextTid = 1;
    bool closed = false;
};

} // namespace zbp::obs

#endif // ZBP_OBS_TRACE_WRITER_HH
