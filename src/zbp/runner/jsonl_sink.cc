#include "zbp/runner/jsonl_sink.hh"

#include <cstdlib>

#include <unistd.h>

#include "zbp/common/log.hh"

namespace zbp::runner
{

JsonObject &
JsonObject::raw(const std::string &key, const std::string &value)
{
    if (!first)
        body += ',';
    first = false;
    body += '"' + escape(key) + "\":" + value;
    return *this;
}

JsonObject &
JsonObject::field(const std::string &key, const std::string &v)
{
    return raw(key, '"' + escape(v) + '"');
}

JsonObject &
JsonObject::field(const std::string &key, const char *v)
{
    return field(key, std::string(v));
}

JsonObject &
JsonObject::field(const std::string &key, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
}

JsonObject &
JsonObject::field(const std::string &key, std::uint64_t v)
{
    return raw(key, std::to_string(v));
}

JsonObject &
JsonObject::field(const std::string &key, bool v)
{
    return raw(key, v ? "true" : "false");
}

JsonObject &
JsonObject::field(const std::string &key,
                  const std::vector<std::uint64_t> &v)
{
    std::string arr = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0)
            arr += ',';
        arr += std::to_string(v[i]);
    }
    arr += ']';
    return raw(key, arr);
}

JsonlSink::JsonlSink(const std::string &path) : filePath(path)
{
    if (filePath.empty())
        return;
    f = std::fopen(filePath.c_str(), "a");
    if (f == nullptr)
        fatal("cannot open results sink '", filePath, "' for append");
}

JsonlSink::~JsonlSink()
{
    if (f == nullptr)
        return;
    // fsync before close so completed records survive a machine crash
    // right after a sweep; a process kill mid-write at worst leaves a
    // torn trailing line, which readRecords detects and skips.
    std::fflush(f);
    ::fsync(::fileno(f));
    std::fclose(f);
}

std::string
JsonlSink::envPath()
{
    const char *s = std::getenv("ZBP_RESULTS_JSONL");
    return s == nullptr ? std::string() : std::string(s);
}

std::size_t
JsonlSink::linesWritten() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nLines;
}

void
JsonlSink::write(const std::string &json_line)
{
    if (f == nullptr)
        return;
    std::lock_guard<std::mutex> lock(mu);
    std::fwrite(json_line.data(), 1, json_line.size(), f);
    std::fputc('\n', f);
    std::fflush(f);
    ++nLines;
}

} // namespace zbp::runner
