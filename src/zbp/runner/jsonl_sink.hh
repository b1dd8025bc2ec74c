/**
 * @file
 * Structured results export: one JSON object per line (JSONL) appended
 * to a file, thread-safe, flushed per record so a killed sweep keeps
 * every completed job.  The file is selected by ZBP_RESULTS_JSONL (or
 * an explicit path); an empty path disables the sink at zero cost.
 *
 * JsonObject is a minimal order-preserving builder — the repo has no
 * JSON dependency and does not want one for flat records; util/json.hh
 * reads them back.
 */

#ifndef ZBP_RUNNER_JSONL_SINK_HH
#define ZBP_RUNNER_JSONL_SINK_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "zbp/util/json.hh"

namespace zbp::runner
{

/** Order-preserving flat JSON object builder with string escaping. */
class JsonObject
{
  public:
    JsonObject &field(const std::string &key, const std::string &v);
    JsonObject &field(const std::string &key, const char *v);
    JsonObject &field(const std::string &key, double v);
    JsonObject &field(const std::string &key, std::uint64_t v);
    JsonObject &field(const std::string &key, bool v);
    JsonObject &field(const std::string &key,
                      const std::vector<std::uint64_t> &v);

    /** The finished object, e.g. {"a":1,"b":"x"}. */
    std::string str() const { return body + "}"; }

    /** Escape @p s for inclusion in a JSON string literal. */
    static std::string escape(const std::string &s) { return json::escape(s); }

  private:
    JsonObject &raw(const std::string &key, const std::string &value);

    std::string body = "{";
    bool first = true;
};

/** Append-only, mutex-serialised JSONL file writer. */
class JsonlSink
{
  public:
    /** Opens @p path for append; empty path = disabled. fatal() when
     * the file cannot be opened (a silently-dropped sweep is worse). */
    explicit JsonlSink(const std::string &path);
    ~JsonlSink();

    JsonlSink(const JsonlSink &) = delete;
    JsonlSink &operator=(const JsonlSink &) = delete;

    /** ZBP_RESULTS_JSONL, or "" when unset. */
    static std::string envPath();

    bool enabled() const { return f != nullptr; }
    const std::string &path() const { return filePath; }
    std::size_t linesWritten() const;

    /** Append one record (no trailing newline needed); thread-safe,
     * flushed immediately.  No-op when disabled. */
    void write(const std::string &json_line);

  private:
    std::string filePath;
    std::FILE *f = nullptr;
    mutable std::mutex mu;
    std::size_t nLines = 0;
};

} // namespace zbp::runner

#endif // ZBP_RUNNER_JSONL_SINK_HH
