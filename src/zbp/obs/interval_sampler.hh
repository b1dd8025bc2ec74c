/**
 * @file
 * Interval time-series metrics: IntervalSampler snapshots a set of
 * registered counter probes every N decoded instructions and emits the
 * *deltas* per interval through an IntervalWriter sidecar (CSV or
 * JSONL), so per-interval CPI / hit-rate curves can be plotted and the
 * column sums reproduce the end-of-run aggregates exactly.
 *
 * Zero-overhead contract (same as TraceWriter): a core holds a plain
 * `IntervalSampler *` that is null unless ZBP_OBS_INTERVAL is set; the
 * hot-path hook is one null test plus one integer compare
 * (`decodeIdx >= smp->nextAt()`).  Probes are read-only lambdas over
 * existing counters, so sampling never perturbs simulation state —
 * golden counters stay bit-identical even with sampling ON.
 *
 * Rows are delta-encoded into a small ring that drains to the writer in
 * batches, keeping mid-run I/O off the per-instruction path.
 */

#ifndef ZBP_OBS_INTERVAL_SAMPLER_HH
#define ZBP_OBS_INTERVAL_SAMPLER_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace zbp::obs
{

/** One sampled interval: deltas since the previous sample. */
struct IntervalRow
{
    std::uint64_t interval = 0; ///< 0-based interval index
    std::uint64_t instEnd = 0;  ///< cumulative decoded insts at sample
    std::uint64_t insts = 0;    ///< instructions in this interval
    std::vector<std::uint64_t> deltas; ///< parallel to the probe list
};

/**
 * Sink for interval rows: CSV when the path ends in ".csv", JSONL
 * otherwise.  Thread-safe; shared by every sampler in the process (one
 * sidecar per run, many cores/jobs).  The first batch fixes the CSV
 * column set; later batches must present the identical probe list
 * (samplers register the canonical probe set, so this holds by
 * construction — a mismatch is a programming error and fatal()s).
 */
class IntervalWriter
{
  public:
    explicit IntervalWriter(const std::string &path);
    ~IntervalWriter();

    IntervalWriter(const IntervalWriter &) = delete;
    IntervalWriter &operator=(const IntervalWriter &) = delete;

    void close(); ///< flush + close; idempotent

    /** fflush() the open file without closing it: rows written so far
     * survive an abnormal exit (crash, SIGKILL) of the process. */
    void flush();

    /** Append @p rows for one (trace, config, core) identity. */
    void writeBatch(const std::string &trace, const std::string &config,
                    unsigned core, const std::vector<const char *> &probes,
                    const std::vector<IntervalRow> &rows);

    const std::string &path() const { return filePath; }
    std::uint64_t rowsWritten() const;

  private:
    std::string filePath;
    std::FILE *f = nullptr;
    bool csv = false;
    bool headerDone = false;
    std::vector<std::string> headerProbes; ///< CSV column contract
    std::uint64_t nRows = 0;
    mutable std::mutex mu;
};

/**
 * Per-core delta sampler.  Lifecycle mirrors a CoreModel run:
 * register probes once, then beginRun() → sample() whenever the decode
 * count crosses an interval boundary → finish() for the final partial
 * interval and the flush to the writer.
 */
class IntervalSampler
{
  public:
    /** @p interval_insts must be >= 1. */
    IntervalSampler(IntervalWriter *writer, std::uint64_t interval_insts);

    IntervalSampler(const IntervalSampler &) = delete;
    IntervalSampler &operator=(const IntervalSampler &) = delete;

    void
    setIdentity(std::string trace, std::string config, unsigned core)
    {
        traceId = std::move(trace);
        configName = std::move(config);
        coreId = core;
    }

    /** Register a probe; @p name must outlive the sampler (string
     * literal).  Call before beginRun(). */
    void addProbe(const char *name, std::function<std::uint64_t()> fn);

    /** Capture the baseline (probe values at run start). */
    void beginRun();

    /** Decode count at which the next sample is due — the hot-path
     * compare: `if (decodeIdx >= smp->nextAt()) smp->sample(decodeIdx)`. */
    std::uint64_t nextAt() const { return nextSampleAt; }

    /** Close the current interval at @p inst_count decoded insts. */
    void sample(std::uint64_t inst_count);

    /** Emit the final partial interval (if any instructions are
     * pending) and drain the ring to the writer. */
    void finish(std::uint64_t inst_count);

    std::uint64_t intervalInsts() const { return step; }
    const std::vector<const char *> &probeNames() const { return names; }

  private:
    void record(std::uint64_t inst_count);
    void flush();

    IntervalWriter *out;
    std::uint64_t step;
    std::string traceId;
    std::string configName;
    unsigned coreId = 0;

    std::vector<const char *> names;
    std::vector<std::function<std::uint64_t()>> probes;
    std::vector<std::uint64_t> prev; ///< probe values at last sample

    std::uint64_t prevInst = 0;
    std::uint64_t nextSampleAt = 0;
    std::uint64_t nIntervals = 0;
    std::vector<IntervalRow> ring; ///< drains to `out` in batches
};

} // namespace zbp::obs

#endif // ZBP_OBS_INTERVAL_SAMPLER_HH
