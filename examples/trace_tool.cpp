/**
 * @file
 * trace_tool — generate, save, inspect and simulate trace files.
 *
 * Usage:
 *   trace_tool gen <suite> <file.zbpt> [scale]   generate & save a suite
 *   trace_tool info <file.zbpt>                  print footprint stats
 *   trace_tool sim <file.zbpt> [cfg] [machine.cfg]
 *                    simulate (cfg: 1|2|3; optional key=value machine
 *                    configuration file layered on top)
 *   trace_tool keys                              list machine config keys
 *   trace_tool list                              list the 13 suites
 *
 * The binary trace format is documented in zbp/trace/trace_io.hh, so
 * external tools can produce traces for this simulator.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "zbp/sim/machine_config.hh"
#include "zbp/sim/simulator.hh"
#include "zbp/stats/table.hh"
#include "zbp/trace/trace_io.hh"
#include "zbp/trace/trace_stats.hh"
#include "zbp/workload/suites.hh"

namespace
{

using namespace zbp;

int
usage()
{
    std::fprintf(stderr,
                 "usage: trace_tool gen <suite> <file.zbpt> [scale]\n"
                 "       trace_tool info <file.zbpt>\n"
                 "       trace_tool sim <file.zbpt> [1|2|3] "
                 "[machine.cfg]\n"
                 "       trace_tool keys\n"
                 "       trace_tool list\n");
    return 2;
}

int
cmdList()
{
    stats::TextTable t("available suites (Table 4)");
    t.setHeader({"name", "paper trace", "paper unique branches"});
    for (const auto &s : workload::paperSuites())
        t.addRow({s.name, s.paperName,
                  std::to_string(s.paperUniqueBranches)});
    t.print();
    return 0;
}

int
cmdGen(const char *suite, const char *path, double scale)
{
    const auto &spec = workload::findSuite(suite);
    const auto t = workload::makeSuiteTrace(spec, scale);
    try {
        trace::saveTraceFile(t, path);
    } catch (const trace::TraceIoError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::printf("wrote %zu instructions to %s\n", t.size(), path);
    return 0;
}

int
cmdInfo(const char *path)
{
    trace::Trace t;
    try {
        t = trace::mapTraceFile(path);
    } catch (const trace::TraceIoError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    const auto st = trace::computeStats(t);
    stats::TextTable tab("trace '" + t.name() + "'");
    tab.addRow({"instructions", std::to_string(st.instructions)});
    tab.addRow({"dynamic branches", std::to_string(st.branches)});
    tab.addRow({"dynamic taken", std::to_string(st.takenBranches)});
    tab.addRow({"unique branch IAs", std::to_string(st.uniqueBranchIas)});
    tab.addRow({"unique taken IAs", std::to_string(st.uniqueTakenIas)});
    tab.addRow({"4 KB code blocks", std::to_string(st.unique4kBlocks)});
    tab.addRow({"code bytes", std::to_string(st.codeBytes)});
    tab.addRow({"consistent",
                t.consistent() ? "yes" : "NO (corrupt control flow)"});
    tab.print();
    return 0;
}

int
cmdSim(const char *path, int cfg, const char *cfg_file)
{
    trace::Trace t;
    try {
        t = trace::mapTraceFile(path);
    } catch (const trace::TraceIoError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    core::MachineParams p;
    const char *name;
    switch (cfg) {
      case 1:
        p = sim::configNoBtb2();
        name = "1 (no BTB2)";
        break;
      case 3:
        p = sim::configLargeBtb1();
        name = "3 (large BTB1)";
        break;
      default:
        p = sim::configBtb2();
        name = "2 (BTB2 enabled)";
        break;
    }
    if (cfg_file != nullptr) {
        const auto res = sim::applyConfigFile(cfg_file, p);
        if (!res.ok) {
            std::fprintf(stderr, "error: %s line %u: %s\n", cfg_file,
                         res.line, res.error.c_str());
            return 1;
        }
    }
    cpu::SimResult r;
    try {
        r = sim::runOne(p, t);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::printf("config %s on '%s': CPI %.3f over %llu insts\n", name,
                t.name().c_str(), r.cpi,
                static_cast<unsigned long long>(r.instructions));
    std::fputs(r.statsText.c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "list") == 0)
        return cmdList();
    if (std::strcmp(argv[1], "gen") == 0 && argc >= 4)
        return cmdGen(argv[2], argv[3],
                      argc >= 5 ? std::atof(argv[4]) : 1.0);
    if (std::strcmp(argv[1], "info") == 0 && argc >= 3)
        return cmdInfo(argv[2]);
    if (std::strcmp(argv[1], "sim") == 0 && argc >= 3)
        return cmdSim(argv[2], argc >= 4 ? std::atoi(argv[3]) : 2,
                      argc >= 5 ? argv[4] : nullptr);
    if (std::strcmp(argv[1], "keys") == 0) {
        std::fputs(sim::configKeyList().c_str(), stdout);
        return 0;
    }
    return usage();
}
