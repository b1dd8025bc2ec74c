/**
 * @file
 * Branch-outcome taxonomy, matching Figure 4 of the paper.
 *
 * Bad branch outcomes are those that incur a performance penalty:
 * dynamically mispredicted branches, plus surprise branches that are
 * guessed or resolved taken.  Bad surprises are classified as
 * compulsory (first time the branch is seen), latency (a prediction
 * existed but was not available in time, or the install was still in
 * flight), or capacity (seen before and not a latency case).
 */

#ifndef ZBP_CPU_OUTCOME_HH
#define ZBP_CPU_OUTCOME_HH

#include <cstdint>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/types.hh"
#include "zbp/stats/stats.hh"
#include "zbp/util/flat_addr_map.hh"

namespace zbp::cpu
{

/** Classification of one dynamic branch. */
enum class Outcome : std::uint8_t
{
    kCorrect,            ///< dynamically predicted, fully correct
    kMispredictDir,      ///< predicted, wrong direction
    kMispredictTarget,   ///< predicted taken, right direction, wrong target
    kSurpriseCompulsory, ///< bad surprise: first occurrence
    kSurpriseLatency,    ///< bad surprise: prediction/install too late
    kSurpriseCapacity,   ///< bad surprise: displaced for capacity
    kSurpriseBenign,     ///< surprise guessed not-taken, resolved not-taken
    kPhantom,            ///< prediction attached to a non-branch
};

/** True for the paper's "bad branch outcome" categories. */
constexpr bool
isBad(Outcome o)
{
    switch (o) {
      case Outcome::kCorrect:
      case Outcome::kSurpriseBenign:
        return false;
      default:
        return true;
    }
}

/** Aggregates outcomes and remembers which branches were ever seen. */
class OutcomeTracker
{
  public:
    /** Has @p ia been dynamically encountered before? Marks it seen. */
    bool
    seenBefore(Addr ia)
    {
        return !seen.insert(ia);
    }

    void
    record(Outcome o)
    {
        ++counts[static_cast<std::size_t>(o)];
        ++total;
    }

    std::uint64_t
    count(Outcome o) const
    {
        return counts[static_cast<std::size_t>(o)].value();
    }

    std::uint64_t totalBranches() const { return total.value(); }

    std::uint64_t
    badCount() const
    {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < kNumOutcomes; ++i)
            if (isBad(static_cast<Outcome>(i)))
                n += counts[i].value();
        return n;
    }

    /** Fraction of all branch outcomes that are bad (Figure 4 y-axis). */
    double
    badFraction() const
    {
        return total.value() == 0
                ? 0.0
                : static_cast<double>(badCount()) /
                  static_cast<double>(total.value());
    }

    double
    fraction(Outcome o) const
    {
        return total.value() == 0
                ? 0.0
                : static_cast<double>(count(o)) /
                  static_cast<double>(total.value());
    }

    void
    registerStats(stats::Group &g) const
    {
        g.add("correct", counts[0], "fully correct predictions");
        g.add("mispredictDir", counts[1], "wrong direction");
        g.add("mispredictTarget", counts[2], "wrong target");
        g.add("surpriseCompulsory", counts[3], "bad surprise: first seen");
        g.add("surpriseLatency", counts[4], "bad surprise: too late");
        g.add("surpriseCapacity", counts[5], "bad surprise: capacity");
        g.add("surpriseBenign", counts[6], "harmless surprise");
        g.add("phantom", counts[7], "phantom predictions");
    }

    /** Serialize into one checkpoint section; the seen addresses are
     * listed in ascending order. */
    void saveState(ckpt::Writer &w) const { state(*this, w); }

    /** Overwrite from a checkpoint section. */
    void restoreState(ckpt::Reader &r) { state(*this, r); }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        io.beginSection(ckpt::tag::kOutcomes);
        for (auto &c : s.counts)
            io.counter(c);
        io.counter(s.total);
        FlatAddrMap<NoValue>::state(s.seen, io);
        io.endSection();
    }

    static constexpr std::size_t kNumOutcomes = 8;
    stats::Counter counts[kNumOutcomes];
    stats::Counter total;
    FlatAddrMap<NoValue> seen;
};

} // namespace zbp::cpu

#endif // ZBP_CPU_OUTCOME_HH
