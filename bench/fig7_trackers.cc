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

    const auto traces = bench::suiteTraces(scale);

    stats::TextTable t("Figure 7: average CPI improvement vs number of "
                       "BTB2 search trackers");
    t.setHeader({"trackers", "avg improvement %", "hardware"});
    // All 6 tracker counts (plus the baseline) as one gang per trace.
    const unsigned counts[] = {1u, 2u, 3u, 4u, 6u, 8u};
    std::vector<runner::GangConfig> gang = {{"no-btb2", sim::configNoBtb2()}};
    for (unsigned n : counts)
        gang.push_back({"trackers-" + std::to_string(n),
                        sim::configTrackers(n)});
    const auto res = bench::sweep("figure 7", gang, traces);
    for (std::size_t i = 0; i < std::size(counts); ++i)
        t.addRow({std::to_string(counts[i]),
                  stats::TextTable::num(bench::meanImprovement(res, i + 1),
                                        2),
                  counts[i] == 3 ? "<== zEC12" : ""});
    t.addNote("paper shape: benefit saturates around 3 trackers");
    t.print();
    return 0;
}
