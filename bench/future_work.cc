/**
 * @file
 * The paper's §6 "Future work" directions, implemented and measured:
 *
 *  - SRAM vs eDRAM second level: the BTB2 read cadence (rows per N
 *    cycles) models a denser but slower memory technology;
 *  - wider BTB2 congruence classes (64 B / 128 B of code per row):
 *    more tag-matching branches per search at the cost of congruence
 *    class overflow in dense code;
 *  - multi-block transfers: chase the transferred branches' most
 *    popular target block with one bounded follow-on search.
 *
 * Run on the same capacity-bound subset as the ablation bench.
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

    std::vector<runner::GangConfig> variants;
    variants.push_back({"no BTB2 (baseline)", sim::configNoBtb2()});
    variants.push_back({"zEC12: SRAM, 32 B class, single block",
                        sim::configBtb2()});
    for (unsigned cad : {2u, 4u}) {
        auto c = sim::configBtb2();
        c.engine.rowReadInterval = cad;
        variants.push_back({"eDRAM-class BTB2: 1 row / " +
                                    std::to_string(cad) + " cycles",
                            c});
    }
    {
        auto c = sim::configBtb2();
        c.engine.rowReadInterval = 2;
        c.btb2.rows = 8192; // denser technology buys 2x capacity
        variants.push_back({"eDRAM-class BTB2: 48k, 1 row / 2 cycles",
                            c});
    }
    for (unsigned rb : {64u, 128u}) {
        auto c = sim::configBtb2();
        c.btb2.rowBytes = rb;
        variants.push_back({std::to_string(rb) +
                                    " B congruence class",
                            c});
    }
    {
        auto c = sim::configBtb2();
        c.engine.multiBlockTransfer = true;
        variants.push_back({"multi-block transfers (depth 1)", c});
    }
    {
        auto c = sim::configBtb2();
        c.engine.multiBlockTransfer = true;
        c.engine.maxChainedBlocks = 3;
        variants.push_back({"multi-block transfers (depth 3)", c});
    }

    auto t = bench::variantCpiTable(
            "Future work (§6): measured CPI per variant", "future-work",
            suites, traces, variants);
    t.addNote("paper §6: 'a multi-level BTB allows for designing ... "
              "the BTB2 in a higher density memory technology'; the "
              "eDRAM rows trade transfer rate for capacity");
    t.print();
    return 0;
}
