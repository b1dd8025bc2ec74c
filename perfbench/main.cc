/**
 * @file
 * zbp_perfbench: runs one benchmark workload against the zbp library
 * and prints what every repetition measured as one JSON line.
 *
 *   zbp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --workdir DIR [--chrome-trace FILE]
 *
 * The run primes the workload once (untimed), then repeats it until
 * S seconds have passed and at least three repetitions (untraced) or
 * one untraced + traced pair (--trace 1) are in hand.  Every
 * repetition starts from empty predictor and cache state and re-does
 * its own set-up.  --workdir receives the trace cache and runner
 * records; perfbench/run.py creates and removes it.  Aggregation,
 * reference digests and the final metric line live in run.py.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "workloads.hh"
#include "zbp/runner/jsonl_sink.hh"

namespace
{

using namespace perfbench;

/** Worker threads of every workload (fewer on a smaller host). */
constexpr unsigned kJobs = 4;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool traced = false;
    std::string workdir;
    std::string chromeTrace;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "zbp_perfbench: %s\nusage: zbp_perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--chrome-trace FILE]\n",
                 why.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string val = argv[++i];
        try {
            if (key == "--workload")
                o.workload = val;
            else if (key == "--seed")
                o.seed = std::stoull(val);
            else if (key == "--seconds")
                o.seconds = std::stod(val);
            else if (key == "--trace")
                o.traced = std::stoi(val) != 0;
            else if (key == "--workdir")
                o.workdir = val;
            else if (key == "--chrome-trace")
                o.chromeTrace = val;
            else
                usage("unknown option " + key);
        } catch (const std::logic_error &) {
            usage("bad value '" + val + "' for " + key);
        }
    }
    if (o.workdir.empty())
        usage("--workdir is required");
    return o;
}

/** Restart the kernel's peak-RSS watermark (VmHWM) for this process. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since the last reset, in MB (2^20 bytes);
 * getrusage's whole-process peak where /proc is unavailable. */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Hand freed heap back to the kernel so one repetition's peak does
 * not carry into the next. */
void
trimHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
str(const std::string &s)
{
    return "\"" + zbp::runner::JsonObject::escape(s) + "\"";
}

std::string
metricsJson(const std::map<std::string, double> &m)
{
    std::string s = "{";
    for (const auto &[k, v] : m)
        s += (s.size() > 1 ? "," : "") + str(k) + ":" + num(v);
    return s + "}";
}

std::string
opsJson(const std::vector<Op> &ops)
{
    std::string s = "[";
    for (const Op &op : ops) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(op.digest));
        s += (s.size() > 1 ? "," : "") + std::string("[") + str(op.id) +
             "," + str(hex) + "," + str(op.error) + "]";
    }
    return s + "]";
}

std::string
repJson(const Rep &r)
{
    return std::string("{\"traced\":") + (r.traced ? "true" : "false") +
           ",\"setup_s\":" + num(r.setupS) + ",\"wall_s\":" + num(r.wallS) +
           ",\"sim_insts\":" + num(r.simInsts) +
           ",\"peak_rss_mb\":" + num(r.peakRssMb) +
           ",\"ops\":" + opsJson(r.ops) +
           ",\"metrics\":" + metricsJson(r.metrics) + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    Context ctx;
    ctx.suites = seededSuites(o.seed);
    ctx.jobs = std::min(kJobs,
                        std::max(1u, std::thread::hardware_concurrency()));
    ctx.traceCache = o.workdir + "/traces";
    ctx.resultsJsonl = o.workdir + "/results.jsonl";
    // The library runners export their records here as well, so both
    // kinds of repetition pay the same record cost.
    ::setenv("ZBP_RESULTS_JSONL", ctx.resultsJsonl.c_str(), 1);

    const auto w = makeWorkload(o.workload, ctx);
    if (!w)
        usage("unknown workload '" + o.workload + "'");

    SpanLog log;
    const auto primed = w->prime(log);
    trimHeap();

    std::vector<Rep> reps;
    std::uint64_t run = 1;
    const auto measure = [&](bool traced) {
        log.setRun(run++);
        resetPeakRss();
        Rep r;
        try {
            r = traced ? w->runTraced(log) : w->runUntraced();
        } catch (const std::exception &e) {
            r.ops.push_back({o.workload, 0, e.what()});
        }
        r.traced = traced;
        r.peakRssMb = peakRssMb();
        reps.push_back(std::move(r));
        trimHeap();
    };
    const std::size_t min_reps = o.traced ? 2 : 3;
    const auto t0 = Clock::now();
    do {
        measure(false);
        if (o.traced)
            measure(true);
    } while (secondsSince(t0) < o.seconds || reps.size() < min_reps);

    Rep fin;
    if (o.traced) {
        log.setRun(run);
        try {
            fin = w->finish(log);
        } catch (const std::exception &e) {
            fin.ops.push_back({o.workload + "/finish", 0, e.what()});
        }
        if (!o.chromeTrace.empty() && !log.writeChromeTrace(o.chromeTrace))
            std::fprintf(stderr, "zbp_perfbench: cannot write %s\n",
                         o.chromeTrace.c_str());
    }

    std::string out = "{\"workload\":" + str(o.workload) +
                      ",\"seed\":" + std::to_string(o.seed) +
                      ",\"jobs\":" + std::to_string(ctx.jobs) +
                      ",\"prime\":" + metricsJson(primed) + ",\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i)
        out += (i ? "," : "") + repJson(reps[i]);
    out += "],\"final\":" + repJson(fin) + "}";
    std::printf("%s\n", out.c_str());
    return 0;
}
