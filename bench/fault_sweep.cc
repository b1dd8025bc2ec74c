/**
 * @file
 * Fault-injection degradation sweep: CPI of the full two-level
 * configuration as the per-access corruption rate rises from zero to
 * 1-in-20.  The zEC12 protects predictor arrays with parity and treats
 * a parity hit as a miss; this sweep quantifies the performance-only
 * cost of such soft errors in the model — every run must finish with
 * identical architectural counts, corruption shows up purely as bad
 * branch outcomes and preload waste.
 *
 * The rate-0 row doubles as the zero-overhead check: it is the same
 * simulation as a run with injection compiled out, so its CPI must
 * match the fig2 btb2 numbers exactly.
 */

#include "bench_util.hh"

int
main()
{
    using namespace zbp;
    const double scale = bench::scaleFromEnv();

    const auto traces = bench::suiteTraces(scale, {"tpf"});

    const double rates[] = {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2};

    // All 6 fault rates as one gang over the single trace (the gang
    // shares the trace bytes across the rates).
    std::vector<runner::GangConfig> gang;
    for (const double rate : rates) {
        core::MachineParams prm = sim::configBtb2();
        prm.faults.enabled = rate > 0.0;
        prm.faults.rate = rate;
        char label[32];
        std::snprintf(label, sizeof(label), "faults-%g", rate);
        gang.push_back({label, prm});
    }

    const auto res = bench::sweep("fault sweep", gang, traces);

    const auto &clean = res[0][0];
    stats::TextTable t("Fault-injection degradation sweep, TPF (" +
                       std::to_string(traces[0]->size()) +
                       " insts, btb2 config, per-access corruption "
                       "rate across all predictor arrays)");
    t.setHeader({"fault rate", "faults", "CPI", "dCPI %", "bad outc %"});
    for (std::size_t i = 0; i < gang.size(); ++i) {
        const auto &r = res[i][0];
        char rateCol[32];
        std::snprintf(rateCol, sizeof(rateCol), "%g", rates[i]);
        t.addRow({rateCol, std::to_string(r.faultsInjected),
                  stats::TextTable::num(r.cpi, 4),
                  stats::TextTable::pct(
                          100.0 * (r.cpi - clean.cpi) / clean.cpi, 2),
                  stats::TextTable::pct(r.badFraction() * 100.0, 2)});
    }
    t.addNote("degradation is performance-only: instruction / branch "
              "counts are invariant across rows");
    t.print();
    return 0;
}
