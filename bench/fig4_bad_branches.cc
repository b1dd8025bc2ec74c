/**
 * @file
 * Figure 4 reproduction: effect of the BTB2 on bad branch outcomes for
 * the z/OS DayTrader DBServ workload.
 *
 * Paper reference points: without the BTB2, 25.9% of all branch
 * outcomes are bad, most of them (21.9%) capacity bad surprises; the
 * BTB2 cuts capacity surprises to 8.1% and total bad outcomes to 14.3%.
 */

#include "bench_util.hh"

#include "zbp/runner/progress.hh"

int
main()
{
    using namespace zbp;
    const double scale = bench::scaleFromEnv();

    const auto &spec = workload::findSuite("daytrader_db");
    const auto trace = workload::makeSuiteTrace(spec, scale);

    runner::RunPolicy policy = runner::RunPolicy::fromEnv();
    policy.progress = runner::consoleProgress();
    const auto res = runner::JobRunner(policy).run(
            {{"no-btb2", sim::configNoBtb2(), &trace},
             {"btb2", sim::configBtb2(), &trace}});
    for (const auto &r : res)
        if (!r.ok)
            fatal("figure 4 job failed: ", r.error);
    const auto &base = res[0].result;
    const auto &with = res[1].result;
    bench::progressDone();

    auto pct = [](std::uint64_t n, std::uint64_t total) {
        return stats::TextTable::pct(
                100.0 * static_cast<double>(n) /
                        static_cast<double>(total), 2);
    };

    stats::TextTable t("Figure 4: bad branch outcomes, z/OS DayTrader "
                       "DBServ (" + std::to_string(trace.size()) +
                       " insts, % of all branch outcomes)");
    t.setHeader({"category", "no BTB2", "BTB2 enabled"});
    t.addRow({"mispredicted direction", pct(base.mispredictDir, base.branches),
              pct(with.mispredictDir, with.branches)});
    t.addRow({"mispredicted target", pct(base.mispredictTarget, base.branches),
              pct(with.mispredictTarget, with.branches)});
    t.addRow({"surprise: compulsory", pct(base.surpriseCompulsory, base.branches),
              pct(with.surpriseCompulsory, with.branches)});
    t.addRow({"surprise: latency", pct(base.surpriseLatency, base.branches),
              pct(with.surpriseLatency, with.branches)});
    t.addRow({"surprise: capacity", pct(base.surpriseCapacity, base.branches),
              pct(with.surpriseCapacity, with.branches)});
    t.addRow({"total bad outcomes",
              stats::TextTable::pct(base.badFraction() * 100.0, 2),
              stats::TextTable::pct(with.badFraction() * 100.0, 2)});
    t.addNote("paper: total bad 25.9% -> 14.3%; capacity 21.9% -> 8.1%");
    t.addNote("benign surprises (guessed and resolved not-taken) are not "
              "bad outcomes: " + pct(base.surpriseBenign, base.branches) +
              " -> " + pct(with.surpriseBenign, with.branches));
    t.print();
    return 0;
}
