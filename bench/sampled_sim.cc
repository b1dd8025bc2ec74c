/**
 * @file
 * Sampled-simulation benchmark: one long trace, three legs.
 *
 *  1. fast sampled run — functional warm-up fan-out, parallel detailed
 *     measurement intervals, stitched CPI estimate;
 *  2. exact monolithic reference — one detailed CoreModel::run, the
 *     ground truth for wall clock and CPI;
 *  3. (ZBP_SAMPLE_CHECK_EXACT=1) exact-tiling sampled run — stitched
 *     counters must be bit-identical to leg 2, else exit non-zero.
 *
 * Prints a human table plus one machine-readable "sampled-summary:
 * {...}" JSON line with the same figures.  The judged long-trace
 * numbers come from perfbench/'s sampled_long workload, which drives
 * the same SampleRunner path at full scale.
 *
 * Environment (on top of the standard bench contract):
 *   ZBP_SAMPLE_TRACE     suite to run (default tpf)
 *   ZBP_SAMPLE_MODE/INTERVAL/WARMUP/MEASURE   sampling geometry; when
 *     ZBP_SAMPLE_INTERVAL is unset a trace-relative default is used
 *     (interval = len/32, warm-up = interval/20, window = interval/10)
 *   ZBP_SAMPLE_CHECK_EXACT=1   enable leg 3 (doubles the detailed work)
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "bench_util.hh"

#include "zbp/sample/sample_params.hh"
#include "zbp/sample/sample_runner.hh"
#include "zbp/sim/configs.hh"
#include "zbp/trace/trace_index.hh"

int
main()
{
    using namespace zbp;
    const double scale = bench::scaleFromEnv();

    const char *trace_env = std::getenv("ZBP_SAMPLE_TRACE");
    const std::string trace_name =
            trace_env != nullptr && *trace_env != '\0' ? trace_env
                                                       : "tpf";
    const auto traces = bench::suiteTraces(scale, {trace_name});
    const trace::Trace &t = *traces.front();
    const core::MachineParams cfg = sim::configBtb2();

    sample::SampleParams prm = sample::sampleParamsFromEnv();
    if (std::getenv("ZBP_SAMPLE_INTERVAL") == nullptr) {
        // Trace-relative geometry: 32 intervals, 5% warm-up, 10%
        // measured — roughly SMARTS-shaped at any length scale.
        prm.intervalInsts =
                std::max<std::uint64_t>(t.size() / 32, 1'000);
        prm.warmupInsts = prm.intervalInsts / 20;
        prm.measureInsts = prm.intervalInsts / 10;
    }

    // Leg 1: fast sampled run.
    bench::progressLine("sampled run (" +
                        std::string(sample::to_string(prm.mode)) + ")");
    sample::SampleRunner sr(prm);
    const sample::SampleReport rep =
            sr.run("sampled-" + std::string(sample::to_string(prm.mode)),
                   cfg, t);

    // Leg 2: monolithic exact reference.
    bench::progressLine("exact reference run");
    const trace::TraceIndex tidx(t);
    const auto e0 = std::chrono::steady_clock::now();
    cpu::CoreModel mono(cfg);
    mono.setTraceIndex(&tidx);
    const cpu::SimResult exact = mono.run(t);
    const double exact_wall =
            std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - e0)
                    .count();
    bench::progressDone();

    const double cpi_err_pct =
            exact.cpi > 0.0
                    ? 100.0 * (rep.estimatedCpi - exact.cpi) / exact.cpi
                    : 0.0;
    const double interval_rate =
            rep.detailedSeconds > 0.0
                    ? static_cast<double>(rep.stitched.instructions) /
                              rep.detailedSeconds
                    : 0.0;

    stats::TextTable tbl("Sampled simulation vs exact reference (" +
                         trace_name + ", " +
                         std::to_string(t.size()) + " insts)");
    tbl.setHeader({"metric", "value"});
    tbl.addRow({"mode", sample::to_string(prm.mode)});
    tbl.addRow({"intervals", std::to_string(rep.intervals)});
    tbl.addRow({"jobs", std::to_string(sr.jobs())});
    tbl.addRow({"warm-up insts/s",
                stats::TextTable::num(rep.warmupInstsPerSec, 0)});
    tbl.addRow({"interval insts/s (per worker)",
                stats::TextTable::num(interval_rate, 0)});
    tbl.addRow({"coverage %",
                stats::TextTable::num(100.0 * rep.coverage, 2)});
    tbl.addRow({"sampled wall s",
                stats::TextTable::num(rep.wallSeconds, 3)});
    tbl.addRow({"exact wall s", stats::TextTable::num(exact_wall, 3)});
    tbl.addRow({"speedup vs exact",
                stats::TextTable::num(
                        rep.wallSeconds > 0.0
                                ? exact_wall / rep.wallSeconds
                                : 0.0,
                        2)});
    tbl.addRow({"exact CPI", stats::TextTable::num(exact.cpi, 4)});
    tbl.addRow({"sampled CPI",
                stats::TextTable::num(rep.estimatedCpi, 4)});
    tbl.addRow({"CPI error %", stats::TextTable::num(cpi_err_pct, 3)});
    tbl.addRow({"CPI error bar (+-)",
                stats::TextTable::num(rep.cpiErrorBar, 4)});
    tbl.print();

    // Leg 3: exact-tiling cross-check (opt-in, detailed-work heavy).
    const char *check = std::getenv("ZBP_SAMPLE_CHECK_EXACT");
    bool check_ok = true;
    if (check != nullptr && std::string(check) == "1") {
        sample::SampleParams ep = prm;
        ep.mode = sample::SampleMode::kExact;
        sample::SampleRunner esr(ep);
        const sample::SampleReport er = esr.run("sampled-exact", cfg, t);
        const std::string mismatch =
                cpu::counterMismatch(er.stitched, exact);
        check_ok = mismatch.empty();
        std::printf("exact-tiling cross-check: %s (stitched %llu "
                    "cycles vs monolithic %llu)\n",
                    check_ok ? "bit-identical"
                             : ("MISMATCH " + mismatch).c_str(),
                    static_cast<unsigned long long>(er.stitched.cycles),
                    static_cast<unsigned long long>(exact.cycles));
    }

    std::printf("sampled-summary: {\"trace\":\"%s\",\"instructions\":%llu,"
                "\"mode\":\"%s\",\"intervals\":%llu,\"jobs\":%u,"
                "\"warmup_insts_per_sec\":%.0f,"
                "\"interval_insts_per_sec\":%.0f,"
                "\"coverage\":%.4f,"
                "\"sampled_wall_seconds\":%.3f,"
                "\"exact_wall_seconds\":%.3f,"
                "\"speedup_vs_exact\":%.2f,"
                "\"exact_cpi\":%.4f,\"sampled_cpi\":%.4f,"
                "\"cpi_error_pct\":%.3f,\"cpi_error_bar\":%.4f}\n",
                trace_name.c_str(),
                static_cast<unsigned long long>(t.size()),
                sample::to_string(prm.mode),
                static_cast<unsigned long long>(rep.intervals),
                sr.jobs(), rep.warmupInstsPerSec, interval_rate,
                rep.coverage, rep.wallSeconds, exact_wall,
                rep.wallSeconds > 0.0 ? exact_wall / rep.wallSeconds
                                      : 0.0,
                exact.cpi, rep.estimatedCpi, cpi_err_pct,
                rep.cpiErrorBar);
    return check_ok ? 0 : 1;
}
