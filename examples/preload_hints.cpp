/**
 * @file
 * Domain scenario: software branch preloading.
 *
 * The BTBP accepts "branch preload instructions" as one of its write
 * sources (paper §3.1) — on z, compilers emit BPP/BPRP hints ahead of
 * cold calls.  This example measures the effect of warming the
 * hierarchy through BranchPredictorHierarchy::preload() before running
 * a cold code region, versus taking every first-visit branch as a
 * compulsory surprise.
 *
 * It drives the CoreModel's components directly, which also makes it a
 * worked example of the white-box API.
 */

#include <cstdio>

#include "zbp/cpu/core_model.hh"
#include "zbp/sim/configs.hh"
#include "zbp/stats/table.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"

namespace
{

using namespace zbp;

trace::Trace
coldRegionTrace()
{
    workload::BuildParams b;
    b.seed = 7;
    b.numFunctions = 300;
    const auto prog = workload::buildProgram(b);
    workload::GenParams g;
    g.seed = 8;
    g.length = 60'000;
    g.numRoots = 60;
    g.hotRoots = 60;
    g.phaseLength = 0; // no rotation: one cold sweep
    g.rootSkew = 0.1;
    return workload::generateTrace(prog, g, "cold");
}

} // namespace

int
main()
{
    using namespace zbp;
    const auto trace = coldRegionTrace();

    // Pass 1: cold machine.
    cpu::CoreModel cold(sim::configBtb2());
    const auto r_cold = cold.run(trace);

    // Pass 2: a compiler-style preload pass hints every ever-taken
    // branch of the region into the BTBP-backed hierarchy before
    // execution.  (Real BPP instructions would trickle these in just
    // ahead of use; front-loading gives the upper bound.)
    cpu::CoreModel warmed(sim::configBtb2());
    std::uint64_t hints = 0;
    {
        std::unordered_map<Addr, Addr> first_target;
        for (const auto &i : trace)
            if (i.branch() && i.taken &&
                first_target.emplace(i.ia, i.target()).second) {
                ++hints;
            }
        for (const auto &[ia, target] : first_target) {
            warmed.hierarchy().preload(ia, target);
            // Large hint sets overflow the 768-entry BTBP into thin
            // air, exactly as on hardware; push the overflow into the
            // BTB2 the way resident prediction content would be.
            warmed.hierarchy().btb2().install(
                    btb::BtbEntry::freshTaken(ia, target));
        }
    }
    const auto r_warm = warmed.run(trace);

    stats::TextTable t("software branch preload: cold region, " +
                       std::to_string(trace.size()) + " instructions");
    t.setHeader({"run", "CPI", "compulsory", "capacity", "latency",
                 "correct"});
    auto row = [&t](const char *name, const cpu::SimResult &r) {
        t.addRow({name, stats::TextTable::num(r.cpi, 3),
                  std::to_string(r.surpriseCompulsory),
                  std::to_string(r.surpriseCapacity),
                  std::to_string(r.surpriseLatency),
                  std::to_string(r.correct)});
    };
    row("cold start", r_cold);
    row("preloaded", r_warm);
    t.addNote(std::to_string(hints) + " branch hints issued; CPI saved: " +
              stats::TextTable::pct(cpu::cpiImprovement(r_cold, r_warm)));
    t.print();
    return 0;
}
