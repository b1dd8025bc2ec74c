/**
 * @file
 * Figure 5 reproduction: average CPI improvement (over the 13 traces,
 * relative to the no-BTB2 baseline) for various BTB2 sizes.  The
 * hardware point (24k = 4k x 6) is marked.
 */

#include "bench_util.hh"

int
main()
{
    using namespace zbp;
    const double scale = bench::scaleFromEnv();

    const auto traces = bench::suiteTraces(scale);

    struct Point
    {
        const char *label;
        std::uint32_t rows;
        std::uint32_t ways;
        bool hw;
    };
    const Point points[] = {
        {"6k (1k x 6)", 1024, 6, false},
        {"12k (2k x 6)", 2048, 6, false},
        {"24k (4k x 6)", 4096, 6, true},
        {"48k (8k x 6)", 8192, 6, false},
        {"96k (16k x 6)", 16384, 6, false},
    };

    // All 5 sweep points (plus the baseline) run as one gang per trace.
    std::vector<runner::GangConfig> gang = {{"no-btb2", sim::configNoBtb2()}};
    for (const auto &p : points)
        gang.push_back({"btb2-" + std::to_string(p.rows) + "x" +
                                std::to_string(p.ways),
                        sim::configBtb2Sized(p.rows, p.ways)});
    const auto res = bench::sweep("figure 5", gang, traces);

    stats::TextTable t("Figure 5: average CPI improvement vs BTB2 size");
    t.setHeader({"BTB2 size", "avg improvement %", "hardware"});
    for (std::size_t i = 0; i < std::size(points); ++i)
        t.addRow({points[i].label,
                  stats::TextTable::num(bench::meanImprovement(res, i + 1),
                                        2),
                  points[i].hw ? "<== zEC12" : ""});
    t.addNote("paper shape: monotonically increasing with diminishing "
              "returns; hardware chose 24k");
    t.print();
    return 0;
}
