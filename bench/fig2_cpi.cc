/**
 * @file
 * Figure 2 reproduction: % CPI improvement of the two level predictor
 * (Table 3 configuration 2) and of the unrealistically large one level
 * BTB1 (configuration 3), both relative to configuration 1, for all 13
 * large-footprint traces — plus the BTB2 effectiveness ratio.
 *
 * Paper reference points: maximum BTB2 benefit 13.8% (z/OS DayTrader
 * DBServ); effectiveness 16.6%..83.4%, average 52%.
 */

#include "bench_util.hh"

int
main()
{
    using namespace zbp;
    const double scale = bench::scaleFromEnv();

    stats::TextTable cfg("Table 3: simulated configurations");
    cfg.setHeader({"name", "BTBP", "BTB1", "BTB2"});
    cfg.addRow({"1. No BTB2", "768 (128 x 6)", "4k (1k x 4)",
                "0 (disabled)"});
    cfg.addRow({"2. BTB2 enabled", "768 (128 x 6)", "4k (1k x 4)",
                "24k (4k x 6)"});
    cfg.addRow({"3. Unrealistically large BTB1", "768 (128 x 6)",
                "24k (4k x 6)", "0 (disabled)"});
    cfg.print();
    std::printf("\n");

    stats::TextTable t("Figure 2: CPI improvement from the BTB2 vs the "
                       "large-BTB1 ceiling");
    t.setHeader({"trace", "base CPI", "BTB2 imp%", "largeBTB1 imp%",
                 "effectiveness%"});

    // Load the 13 traces sharded (cached when ZBP_TRACE_CACHE is set),
    // then run all 39 simulations (13 traces x 3 configurations) as
    // one gang per trace.
    const auto &specs = workload::paperSuites();
    const auto traces = bench::suiteTraces(scale);
    const auto rows = sim::runFig2Rows(traces);

    double sum_eff = 0.0, max_btb2 = 0.0;
    int n_eff = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &row = rows[i];
        const double i2 = row.btb2Improvement();
        const double i3 = row.largeBtb1Improvement();
        const double eff = row.effectiveness();
        if (i3 > 0.0) {
            sum_eff += eff;
            ++n_eff;
        }
        if (i2 > max_btb2)
            max_btb2 = i2;
        t.addRow({specs[i].paperName,
                  stats::TextTable::num(row.base.cpi, 3),
                  stats::TextTable::num(i2, 2),
                  stats::TextTable::num(i3, 2),
                  stats::TextTable::num(eff, 1)});
    }
    bench::progressDone();

    t.addNote("paper: max BTB2 benefit 13.8% (DayTrader DBServ); "
              "effectiveness 16.6..83.4%, average 52%");
    t.addNote("measured: max BTB2 benefit " +
              stats::TextTable::num(max_btb2, 2) + "%, average "
              "effectiveness " +
              stats::TextTable::num(n_eff ? sum_eff / n_eff : 0.0, 1) +
              "%");
    t.print();
    return 0;
}
