/**
 * @file
 * Figure 6 reproduction: average CPI improvement for various
 * definitions of a BTB1 miss — the number of consecutive fruitless
 * searches before the miss is reported (hardware: 4 searches, 128 B) —
 * plus the paper's §3.4 "alternative definition" (decode-detected
 * surprise branches reported as misses in addition to the search-based
 * detection).
 */

#include "bench_util.hh"

int
main()
{
    using namespace zbp;
    const double scale = bench::scaleFromEnv();

    const auto traces = bench::suiteTraces(scale);

    stats::TextTable t("Figure 6: average CPI improvement vs BTB1 miss "
                       "definition");
    t.setHeader({"definition", "avg improvement %", "hardware"});

    // All 7 definitions (plus the baseline) as one gang per trace.
    const unsigned searchPoints[] = {2u, 3u, 4u, 5u, 6u, 8u};
    std::vector<runner::GangConfig> gang = {{"no-btb2", sim::configNoBtb2()}};
    for (unsigned searches : searchPoints)
        gang.push_back({"miss-limit-" + std::to_string(searches),
                        sim::configMissLimit(searches)});
    // Alternative §3.4 definition, layered on top of the hardware one.
    auto alt = sim::configBtb2();
    alt.decodeTimeMissReports = true;
    gang.push_back({"miss-limit-4+decode-surprises", alt});

    const auto res = bench::sweep("figure 6", gang, traces);
    for (std::size_t i = 0; i < std::size(searchPoints); ++i) {
        const unsigned searches = searchPoints[i];
        t.addRow({std::to_string(searches) + " searches (" +
                          std::to_string(searches * 32) + " B)",
                  stats::TextTable::num(bench::meanImprovement(res, i + 1),
                                        2),
                  searches == 4 ? "<== zEC12" : ""});
    }
    t.addRow({"4 searches + decode-time surprises",
              stats::TextTable::num(
                      bench::meanImprovement(res, gang.size() - 1), 2),
              ""});

    t.addNote("paper: 4 searches / 128 bytes provides the best results "
              "on the studied workloads");
    t.print();
    return 0;
}
