/**
 * @file
 * Table 5 echo: the zEC12 chip configuration the paper lists, next to
 * what this model actually implements (finite vs idealized), so the
 * modelling scope is explicit.
 */

#include "bench_util.hh"

int
main()
{
    using namespace zbp;
    const core::MachineParams p = sim::configBtb2();

    stats::TextTable t("Table 5: zEnterprise EC12 chip configuration "
                       "(paper) vs model");
    t.setHeader({"component", "paper", "this model"});
    t.addRow({"L1 instruction cache", "64KB (4-way)",
              std::to_string(p.icache.sizeBytes / 1024) + "KB (" +
                      std::to_string(p.icache.ways) + "-way, " +
                      std::to_string(p.icache.lineBytes) + "B lines)"});
    t.addRow({"L1 data cache", "96KB (6-way)",
              std::to_string(p.dcache.sizeBytes / 1024) + "KB (" +
                      std::to_string(p.dcache.ways) + "-way, " +
                      std::to_string(p.dcache.lineBytes) + "B lines, " +
                      std::to_string(p.dcache.missLatency) +
                      "-cycle miss)"});
    t.addRow({"L2 caches and beyond", "1MB I / 1MB D, 48MB L3, 384MB L4",
              "infinite (fixed " +
                      std::to_string(p.icache.missLatency) +
                      "-cycle L1I miss latency, per paper §4)"});
    t.addRow({"decode width", "3 (z196/zEC12 class)",
              std::to_string(p.cpu.decodeWidth) + " / cycle"});
    t.addRow({"BTB1", "4k (1k x 4)",
              std::to_string(p.btb1.entries() / 1024) + "k (" +
                      std::to_string(p.btb1.rows) + " x " +
                      std::to_string(p.btb1.ways) + ")"});
    t.addRow({"BTBP", "768 (128 x 6)",
              std::to_string(p.btbp.entries()) + " (" +
                      std::to_string(p.btbp.rows) + " x " +
                      std::to_string(p.btbp.ways) + ")"});
    t.addRow({"BTB2", "24k (4k x 6)",
              std::to_string(p.btb2.entries() / 1024) + "k (" +
                      std::to_string(p.btb2.rows) + " x " +
                      std::to_string(p.btb2.ways) + ")"});
    t.addRow({"PHT / CTB", "4096 / 2048 (z196-like)",
              std::to_string(p.phtEntries) + " / " +
                      std::to_string(p.ctbEntries)});
    t.addRow({"surprise BHT", "32k x 1 bit",
              std::to_string(p.surpriseBhtEntries / 1024) + "k x 1 bit"});
    t.addRow({"FIT", "64 branches",
              std::to_string(p.search.fitEntries) + " branches"});
    t.addRow({"BTB2 search trackers", "3",
              std::to_string(p.engine.numTrackers)});
    t.addRow({"sector order table", "512 x 2-way (2MB reach)",
              std::to_string(p.sot.entries) + " x " +
                      std::to_string(p.sot.ways) + "-way"});
    t.addNote("L1 data cache: instructions with an operand address use "
              "it; only those without one take the background stall "
              "(dataStallProb=" +
              stats::TextTable::num(p.cpu.dataStallProb, 2) + ", " +
              std::to_string(p.cpu.dataStallCycles) + " cycles)");
    t.addNote("Table 5 items without performance impact on this study "
              "(TLBs, issue queues, register files) are not modelled");
    t.print();
    return 0;
}
