#include "zbp/workload/suites.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "zbp/common/env.hh"
#include "zbp/common/log.hh"
#include "zbp/obs/obs_config.hh"
#include "zbp/trace/trace_io.hh"
#include "zbp/util/atomic_file.hh"

namespace zbp::workload
{

namespace
{

/** Personality of a workload: coarse knob bundles that steer the ratio
 * of ever-taken to all branch sites and the code layout density. */
enum class Personality
{
    kBranchyTaken, ///< TPF-like: dense taken branches, small footprint
    kBalanced,     ///< typical z/OS transaction mix
    kColdCond,     ///< WAS/DB-like: many rarely-taken error-path branches
};

BuildParams
buildFor(Personality p, std::uint64_t unique_target, std::uint64_t seed)
{
    BuildParams b;
    b.seed = seed;

    switch (p) {
      case Personality::kBranchyTaken:
        b.callFraction = 0.22;
        b.uncondFraction = 0.15;
        b.indirectFraction = 0.05;
        b.loopFraction = 0.11;
        b.flakyFraction = 0.06;
        b.periodicFraction = 0.08;
        b.minInstsPerBlock = 2;
        b.maxInstsPerBlock = 6;
        break;
      case Personality::kBalanced:
        // The BuildParams defaults, unchanged.
        break;
      case Personality::kColdCond:
        b.callFraction = 0.12;
        b.uncondFraction = 0.06;
        b.indirectFraction = 0.03;
        b.loopFraction = 0.05;
        b.flakyFraction = 0.08;
        b.periodicFraction = 0.04;
        b.minInstsPerBlock = 3;
        b.maxInstsPerBlock = 10;
        break;
    }

    // ~9 static branch sites per function on average with the default
    // 4..14 block range.  The walker only touches a fraction of the
    // static sites (measured per personality with the default dynamic
    // parameters); the function count is scaled so the *dynamic*
    // footprint lands near the paper's Table 4 value.
    const double sites_per_function =
            (b.minBlocksPerFunction + b.maxBlocksPerFunction) / 2.0;
    const double coverage = p == Personality::kColdCond   ? 0.23
                            : p == Personality::kBranchyTaken ? 0.39
                                                              : 0.37;
    b.numFunctions = static_cast<std::uint32_t>(
            static_cast<double>(unique_target) / sites_per_function /
            coverage);
    if (b.numFunctions < 8)
        b.numFunctions = 8;
    return b;
}

GenParams
genFor(Personality p, const BuildParams &b, std::uint64_t seed,
       std::uint64_t unique_target)
{
    GenParams g;
    g.seed = seed * 0x9E37u + 17;

    // Roots spread across the whole program; the hot window covers a
    // modest slice and slides so every phase both revisits recent code
    // (BTB2 re-load opportunity) and touches colder code.
    g.numRoots = std::max<std::uint32_t>(16, b.numFunctions / 5);
    g.hotRoots = std::max<std::uint32_t>(8, g.numRoots / 3);
    g.phaseStride = std::max<std::uint32_t>(2, g.hotRoots / 2);
    g.phaseLength = 100'000;
    g.rootSkew = p == Personality::kColdCond ? 0.2 : 0.35;

    // Nominal length: enough for every root window position to recur at
    // least twice, bounded for bench runtimes.
    const std::uint64_t per_phase = g.phaseLength;
    const std::uint64_t phases_per_lap =
            (g.numRoots + g.phaseStride - 1) / g.phaseStride;
    std::uint64_t len = per_phase * phases_per_lap * 2;
    // Large footprints need proportionally longer traces or compulsory
    // misses swamp the capacity signal the paper studies.
    const std::uint64_t floor_len = unique_target * 30;
    if (len < floor_len)
        len = floor_len;
    if (len < 1'600'000)
        len = 1'600'000;
    if (len > 3'200'000)
        len = 3'200'000;
    g.length = len;
    return g;
}

SuiteSpec
makeSpec(const std::string &name, const std::string &paper_name,
         std::uint64_t uniq, std::uint64_t taken, Personality p,
         std::uint64_t seed)
{
    SuiteSpec s;
    s.name = name;
    s.paperName = paper_name;
    s.paperUniqueBranches = uniq;
    s.paperUniqueTaken = taken;
    s.build = buildFor(p, uniq, seed);
    s.gen = genFor(p, s.build, seed, uniq);
    return s;
}

std::vector<SuiteSpec>
makeAll()
{
    using P = Personality;
    std::vector<SuiteSpec> v;
    v.push_back(makeSpec("cb84", "Z/OS LSPR CB84",
                         15'244, 10'963, P::kBalanced, 101));
    v.push_back(makeSpec("cicsdb2", "Z/OS LSPR CICS/DB2",
                         40'667, 27'500, P::kBalanced, 102));
    v.push_back(makeSpec("ims", "Z/OS LSPR IMS",
                         29'692, 19'673, P::kBalanced, 103));
    v.push_back(makeSpec("cbl", "Z/OS LSPR CB-L",
                         25'622, 16'612, P::kBalanced, 104));
    v.push_back(makeSpec("wasdb_cbw2", "Z/OS LSPR WASDB+CBW2",
                         114'955, 51'371, P::kColdCond, 105));
    v.push_back(makeSpec("trade6", "Z/OS Trade6",
                         115'509, 56'017, P::kColdCond, 106));
    v.push_back(makeSpec("tpf", "TPF airline reservations",
                         11'160, 9'317, P::kBranchyTaken, 107));
    v.push_back(makeSpec("appserv", "Z/OS AppServ benchmark",
                         26'340, 16'980, P::kBalanced, 108));
    v.push_back(makeSpec("dbserv", "Z/OS DBServ benchmark",
                         38'655, 20'020, P::kColdCond, 109));
    v.push_back(makeSpec("daytrader_app", "Z/OS DayTrader AppServ",
                         67'336, 30'165, P::kColdCond, 110));
    v.push_back(makeSpec("daytrader_db", "Z/OS DayTrader DBServ",
                         34'819, 22'217, P::kBalanced, 111));
    v.push_back(makeSpec("informix", "zLinux Informix",
                         16'810, 11'765, P::kBalanced, 112));
    v.push_back(makeSpec("ztrade6", "zLinux Trade6",
                         69'847, 31'897, P::kColdCond, 113));
    return v;
}

// ---- trace cache ----------------------------------------------------

std::atomic<std::uint64_t> cacheHits{0};
std::atomic<std::uint64_t> cacheMisses{0};
std::atomic<std::uint64_t> cacheInvalid{0};

/** Timeline instant for one cache lookup outcome (no-op when the
 * timeline is off).  One shared lane: instants have no duration, so
 * concurrent lookups from different workers render fine on it. */
void
noteCacheEvent(const char *what, const std::string &path)
{
    obs::TraceWriter *const tw = obs::globalTraceWriter();
    if (tw == nullptr)
        return;
    static const std::uint32_t lane =
            tw->newLane(obs::TraceWriter::kPidRunner, "trace cache");
    tw->instant(obs::TraceWriter::kPidRunner, lane, "cache",
                std::string("trace-cache:") + what, tw->nowUs(),
                {{"path", obs::jsonStr(path)}});
}

/** The uncached generation path (the pre-cache makeSuiteTrace body). */
trace::Trace
generateSuiteTrace(const SuiteSpec &spec, double length_scale)
{
    const Program prog = buildProgram(spec.build);
    GenParams gp = spec.gen;
    gp.length = static_cast<std::uint64_t>(
            static_cast<double>(gp.length) * length_scale);
    if (gp.length < 10'000)
        gp.length = 10'000;
    // Keep the *number* of phases constant as the trace shrinks so the
    // hot window still sweeps the whole root set (footprint coverage
    // must not degrade with ZBP_LEN_SCALE).
    if (length_scale < 1.0 && gp.phaseLength != 0) {
        gp.phaseLength = static_cast<std::uint64_t>(
                static_cast<double>(gp.phaseLength) * length_scale);
        if (gp.phaseLength < 15'000)
            gp.phaseLength = 15'000;
    }
    return generateTrace(prog, gp, spec.name);
}

std::string
cachePathFor(const std::string &dir, const SuiteSpec &spec, double scale)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                          suiteTraceKey(spec, scale)));
    return dir + "/" + spec.name + "-" + hex + ".zbpt";
}

/** Publish @p t at @p path atomically and durably: write a
 * uniquely-named tmp file in the same directory, then fsync + rename
 * over the target (zbp::publishFile).  Racing writers produce identical
 * bytes, so last-rename-wins is harmless; a failure only costs the
 * caching, never the result.  The tmp name folds in the thread identity
 * on top of the pid because cache writers race within one process. */
void
saveCacheFileAtomic(const trace::Trace &t, const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);

    static std::atomic<std::uint64_t> token{0};
    const std::uint64_t id =
            (std::hash<std::thread::id>{}(std::this_thread::get_id()) << 16) ^
            token.fetch_add(1, std::memory_order_relaxed);
    const std::string tmp =
            atomicTmpPath(path) + "." + std::to_string(id);
    try {
        trace::saveTraceFile(t, tmp);
    } catch (const trace::TraceIoError &e) {
        warn("trace cache: cannot write '", tmp, "': ", e.what());
        fs::remove(tmp, ec);
        return;
    }
    publishFile(tmp, path); // warns and removes the tmp on failure
}

} // namespace

const std::vector<SuiteSpec> &
paperSuites()
{
    static const std::vector<SuiteSpec> suites = makeAll();
    return suites;
}

const SuiteSpec &
findSuite(const std::string &name)
{
    for (const auto &s : paperSuites())
        if (s.name == name)
            return s;
    fatal("unknown suite '", name, "'");
}

std::uint64_t
suiteTraceKey(const SuiteSpec &spec, double length_scale)
{
    const BuildParams &b = spec.build;
    const GenParams &g = spec.gen;
    std::uint64_t h = 0xCBF29CE484222325ull; // FNV offset basis
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001B3ull;
        h ^= h >> 32;
    };
    const auto mixd = [&mix](double d) {
        mix(std::bit_cast<std::uint64_t>(d));
    };

    // Anything that changes the generated instruction stream must feed
    // the key: format + generator versions, the scale, and every knob
    // of the static and dynamic recipes.
    mix(trace::kTraceVersion);
    mix(kGeneratorVersion);
    mixd(length_scale);

    mix(b.seed);
    mix(b.numFunctions);
    mix(b.minBlocksPerFunction);
    mix(b.maxBlocksPerFunction);
    mix(b.minInstsPerBlock);
    mix(b.maxInstsPerBlock);
    mixd(b.callFraction);
    mixd(b.uncondFraction);
    mixd(b.indirectFraction);
    mixd(b.loopFraction);
    mixd(b.flakyFraction);
    mixd(b.periodicFraction);
    mix(b.minLoopTrip);
    mix(b.maxLoopTrip);
    mix(b.base);
    mix(b.functionAlign);
    mix(b.moduleSize);
    mix(b.moduleGapBytes);

    mix(g.seed);
    mix(g.length);
    mix(g.numRoots);
    mix(g.hotRoots);
    mix(g.phaseLength);
    mix(g.phaseStride);
    mixd(g.rootSkew);
    mix(g.dispatcherBase);
    mix(g.maxCallDepth);
    mix(g.maxTransactionInsts);
    mixd(g.dataAccessFraction);
    mix(g.stackBase);
    mix(g.heapBase);
    mix(g.heapRegionBytes);
    mix(g.sharedHeapBytes);

    // SplitMix64 finalizer: spread the FNV state over all 64 bits.
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
}

trace::Trace
makeSuiteTrace(const SuiteSpec &spec, double length_scale)
{
    ZBP_ASSERT(length_scale > 0.0, "length_scale must be positive");
    const std::string dir = envString("ZBP_TRACE_CACHE");
    if (dir.empty())
        return generateSuiteTrace(spec, length_scale);

    const std::string path = cachePathFor(dir, spec, length_scale);
    try {
        trace::Trace t = trace::mapTraceFile(path);
        cacheHits.fetch_add(1, std::memory_order_relaxed);
        noteCacheEvent("hit", path);
        return t;
    } catch (const trace::TraceOpenError &) {
        // Not cached yet (or unreadable): generate and publish.
        cacheMisses.fetch_add(1, std::memory_order_relaxed);
        noteCacheEvent("miss", path);
    } catch (const trace::TraceIoError &e) {
        cacheInvalid.fetch_add(1, std::memory_order_relaxed);
        noteCacheEvent("invalid", path);
        warn("trace cache: regenerating corrupt entry '", path,
             "': ", e.what());
    }
    trace::Trace t = generateSuiteTrace(spec, length_scale);
    saveCacheFileAtomic(t, path);
    return t;
}

trace::TraceHandle
suiteTraceHandle(const SuiteSpec &spec, double length_scale)
{
    // Weak registry: while any job still holds a handle, later requests
    // share it; once every holder is gone the entry expires and the
    // trace is re-mapped (cheap) or regenerated on the next request.
    static std::mutex mu;
    static std::unordered_map<std::uint64_t,
                              std::weak_ptr<const trace::Trace>> reg;
    const std::uint64_t key = suiteTraceKey(spec, length_scale);
    {
        std::lock_guard<std::mutex> lk(mu);
        if (const auto it = reg.find(key); it != reg.end())
            if (auto sp = it->second.lock())
                return sp;
    }
    // Generate outside the lock so distinct suites load in parallel.
    auto sp = std::make_shared<const trace::Trace>(
            makeSuiteTrace(spec, length_scale));
    std::lock_guard<std::mutex> lk(mu);
    auto &slot = reg[key];
    if (auto prior = slot.lock())
        return prior; // another thread won the race; share its copy
    slot = sp;
    return sp;
}

TraceCacheStats
traceCacheStats()
{
    TraceCacheStats s;
    s.hits = cacheHits.load(std::memory_order_relaxed);
    s.misses = cacheMisses.load(std::memory_order_relaxed);
    s.invalid = cacheInvalid.load(std::memory_order_relaxed);
    return s;
}

double
envLengthScale()
{
    return envSetting("ZBP_LEN_SCALE", 1.0, [](const char *s, double &v) {
        return parseNumber(s, v) && v > 0.0;
    });
}

} // namespace zbp::workload
