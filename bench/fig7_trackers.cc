/**
 * @file
 * Figure 7 reproduction: average CPI improvement for various numbers
 * of BTB2 search trackers (hardware: 3).
 */

#include "bench_util.hh"

int
main()
{
    using namespace zbp;
    const double scale = bench::scaleFromEnv();

    sim::SuiteRunner runner(scale);
    runner.setProgress(bench::progressLine);

    stats::TextTable t("Figure 7: average CPI improvement vs number of "
                       "BTB2 search trackers");
    t.setHeader({"trackers", "avg improvement %", "hardware"});
    // All 6 tracker counts (plus the baseline) as one gang per trace.
    const unsigned counts[] = {1u, 2u, 3u, 4u, 6u, 8u};
    std::vector<core::MachineParams> cfgs;
    for (unsigned n : counts)
        cfgs.push_back(sim::configTrackers(n));
    const auto imps = runner.averageImprovements(cfgs);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        t.addRow({std::to_string(counts[i]),
                  stats::TextTable::num(imps[i], 2),
                  counts[i] == 3 ? "<== zEC12" : ""});
    bench::progressDone();
    t.addNote("paper shape: benefit saturates around 3 trackers");
    t.print();
    return 0;
}
