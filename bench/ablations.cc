/**
 * @file
 * Ablation study of the design choices DESIGN.md §5 calls out, beyond
 * the paper's own Figures 5-7: the I-cache transfer filter, the sector
 * order table, semi-exclusivity, the BTBP, the FIT, and tag width.
 *
 * Run on a capacity-bound subset of the suites (the three DayTrader /
 * WASDB class traces) to keep the runtime proportionate.
 */

#include "bench_util.hh"

int
main()
{
    using namespace zbp;
    const double scale = bench::scaleFromEnv();

    const std::vector<std::string> suites = {"daytrader_db", "wasdb_cbw2",
                                             "cicsdb2"};
    const auto traces = bench::suiteTraces(scale, suites);

    std::vector<bench::Variant> variants;
    variants.push_back({"baseline (no BTB2)", sim::configNoBtb2()});
    variants.push_back({"zEC12 (BTB2 enabled)", sim::configBtb2()});
    {
        auto c = sim::configBtb2();
        c.engine.icacheFilter = false;
        variants.push_back({"no I-cache filter (all misses full)", c});
    }
    {
        auto c = sim::configBtb2();
        c.sot.enabled = false;
        variants.push_back({"no sector order table (sequential)", c});
    }
    {
        auto c = sim::configBtb2();
        c.engine.semiExclusive = false;
        variants.push_back({"no semi-exclusive LRU demotion", c});
    }
    {
        auto c = sim::configBtb2();
        c.search.fitEntries = 0;
        variants.push_back({"no FIT (slower re-index)", c});
    }
    {
        auto c = sim::configBtb2();
        c.btbp.rows = 512; // 3072-entry BTBP
        variants.push_back({"4x BTBP (residency headroom)", c});
    }
    {
        auto c = sim::configBtb2();
        c.btb1.tagBits = 6;
        c.btbp.tagBits = 6;
        c.btb2.tagBits = 6;
        variants.push_back({"6-bit tags (aliasing)", c});
    }

    auto t = bench::variantCpiTable(
            "Ablations: CPI per variant (lower is better)", "ablation",
            suites, traces, variants);
    t.addNote("filter/SOT/semi-exclusivity are efficiency features: "
              "removing them mostly costs BTB2 bandwidth and pollution, "
              "visible as a smaller improvement");
    t.print();
    return 0;
}
