/**
 * @file
 * Seeded fault injection for predictor state — the RAS posture of the
 * machine the paper describes, reproduced in the model.
 *
 * A zEC12 predictor array takes parity hits; the machine must degrade
 * to mispredicts and wasted preloads, never to wrong answers.  The
 * FaultInjector models exactly that failure class: on a table access it
 * may flip or invalidate an entry of the accessed structure, at a
 * configurable per-site Bernoulli rate and/or at targeted cycles.
 *
 * Design constraints:
 *  - Zero overhead when off.  Components hold a plain
 *    `FaultInjector *` that is null unless injection is enabled; every
 *    hook is a single null-pointer test on the hot path, and a model
 *    built with FaultParams::enabled == false produces bit-identical
 *    counters to one built before this subsystem existed.
 *  - Deterministic.  All randomness comes from one SplitMix64 Rng
 *    seeded from FaultParams::seed, drawn only when a site's rate is
 *    positive, so a given (config, trace, seed) replays exactly.
 *  - Corruption-only.  The injector never fabricates new entries; the
 *    per-site callbacks registered by the owning structures invalidate
 *    entries or flip stored bits, which the simulator must absorb as
 *    extra mispredicts/surprises (pinned by the CoreModel invariant
 *    checker and tests/fault/).
 */

#ifndef ZBP_FAULT_FAULT_INJECTOR_HH
#define ZBP_FAULT_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/rng.hh"
#include "zbp/common/types.hh"

namespace zbp::obs
{
class TraceWriter;
}

namespace zbp::fault
{

/** The injectable structures (one callback each). */
enum class Site : std::uint8_t
{
    kBtb1,     ///< first-level BTB rows
    kBtbp,     ///< preload buffer rows
    kBtb2,     ///< second-level BTB rows
    kPht,      ///< pattern history table entries
    kCtb,      ///< changing target buffer entries
    kSot,      ///< sector order table entries
    kTransfer, ///< BTB2->BTBP bulk-transfer payloads in flight
    kArbiter,  ///< shared-BTB2 bank arbiter queue state (CMP)
};

inline constexpr unsigned kSiteCount = 8;

/** Short stable name for reports ("btb1", "pht", ...). */
const char *siteName(Site s);

/** One scheduled fault: fire at the first access tickable at or after
 * @p at (the run loop skips idle cycles, so "at cycle X" means "no
 * earlier than X"). */
struct TargetedFault
{
    Cycle at = 0;
    Site site = Site::kBtb1;
    /** Site-specific locator, same meaning as the hook's `where`
     * operand (an address for the BTBs/SOT, a table index for
     * PHT/CTB).  What exactly gets corrupted inside the located
     * row/set is still drawn from the seeded Rng. */
    std::uint64_t where = 0;
};

/** Injection schedule knobs; part of core::MachineParams. */
struct FaultParams
{
    /** Master switch.  False = no injector is even constructed; every
     * hook stays a null-pointer test. */
    bool enabled = false;

    /** Seed for the injection Rng (which entry/bit gets corrupted). */
    std::uint64_t seed = 0x5EEDFA17ull;

    /** Per-access corruption probability applied to every site whose
     * siteRate is negative.  0.0 = rate-based injection off. */
    double rate = 0.0;

    /** Per-site override; negative = inherit `rate`. */
    std::array<double, kSiteCount> siteRate{-1.0, -1.0, -1.0, -1.0,
                                            -1.0, -1.0, -1.0, -1.0};

    /** Hard cap on rate-driven faults (targeted faults always fire). */
    std::uint64_t maxFaults = ~std::uint64_t{0};

    /** Faults to fire at specific cycles regardless of rate. */
    std::vector<TargetedFault> targeted;
};

/**
 * The injector: owns the schedule, the Rng and the per-site corruption
 * callbacks registered by the structures it targets.
 */
class FaultInjector
{
  public:
    /** Callback that corrupts one entry near @p where; drawn bits come
     * from @p rng so corruption stays on the seeded stream. */
    using InjectFn = std::function<void(Rng &rng, std::uint64_t where)>;

    explicit FaultInjector(const FaultParams &p);

    /** Register the corruption callback for @p s (one per site). */
    void attach(Site s, InjectFn fn);

    /**
     * Hot-path hook: called by a structure on each access.  Draws one
     * Bernoulli trial at the site's rate and corrupts on success.
     * Early-outs without touching the Rng when the site rate is zero,
     * keeping rate-0 runs bit-identical to injection-disabled runs.
     */
    void
    onAccess(Site s, std::uint64_t where)
    {
        const double r = rate[static_cast<unsigned>(s)];
        if (r <= 0.0)
            return;
        if (nInjected >= prm.maxFaults)
            return;
        if (!rng.chance(r))
            return;
        fire(s, where);
    }

    /** Fire every targeted fault due at or before @p now (called once
     * per run-loop iteration; idle-skips make "due" = "at or after"). */
    void
    tick(Cycle now)
    {
        nowCycle = now;
        while (nextTargeted < schedule.size() &&
               schedule[nextTargeted].at <= now) {
            const TargetedFault &t = schedule[nextTargeted++];
            fire(t.site, t.where);
        }
    }

    /** Earliest un-fired targeted fault, kNoCycle when none remain
     * (lets the run loop's idle-skip include the schedule). */
    Cycle
    nextTargetedAt() const
    {
        return nextTargeted < schedule.size() ? schedule[nextTargeted].at
                                              : kNoCycle;
    }

    /** Faults actually applied (a fire against a site with no attached
     * callback, or that landed on an invalid entry, still counts as an
     * injection attempt only when a callback ran). */
    std::uint64_t injected() const { return nInjected; }
    std::uint64_t injectedAt(Site s) const
    {
        return perSite[static_cast<unsigned>(s)];
    }

    /** Re-arm for a fresh run: reseed the Rng, clear counters, rewind
     * the targeted schedule. */
    void reset();

    /** Serialize the Rng stream position, schedule cursor and counters
     * (the schedule itself is construction state). */
    void saveState(ckpt::Writer &w) const { state(*this, w); }

    /** Overwrite from a checkpoint section; throws ckpt::CkptError when
     * the stored schedule cursor exceeds this run's schedule. */
    void restoreState(ckpt::Reader &r) { state(*this, r); }

    /** Attach the obs timeline: each applied fault is emitted as an
     * instant on lane @p lane of the microarch track.  Injection
     * decisions and the Rng stream are unaffected — tracing never
     * changes what gets corrupted. */
    void setTracer(obs::TraceWriter *t, std::uint32_t lane)
    {
        tracer = t;
        laneId = lane;
    }
    bool traced() const { return tracer != nullptr; }

    /** Timestamp source for traced onAccess() fires; the owning run
     * loop calls this only when a tracer is attached. */
    void noteCycle(Cycle now) { nowCycle = now; }

  private:
    void fire(Site s, std::uint64_t where);

    FaultParams prm;
    Rng rng;
    std::array<double, kSiteCount> rate{};
    std::array<InjectFn, kSiteCount> inject{};
    std::array<std::uint64_t, kSiteCount> perSite{};
    std::vector<TargetedFault> schedule; ///< sorted by cycle
    std::size_t nextTargeted = 0;
    std::uint64_t nInjected = 0;

    // Timeline (null = tracing off; fire() emits instants when set).
    obs::TraceWriter *tracer = nullptr;
    std::uint32_t laneId = 0;
    Cycle nowCycle = 0;

    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        io.beginSection(ckpt::tag::kFault);
        std::uint64_t raw = s.rng.rawState();
        io.u64(raw);
        if constexpr (Io::kReading)
            s.rng.seed(raw);
        io.u64(s.nextTargeted);
        io.check(s.nextTargeted <= s.schedule.size(),
                 "schedule cursor out of range");
        io.u64(s.nInjected);
        for (auto &c : s.perSite)
            io.u64(c);
        io.u64(s.nowCycle);
        io.endSection();
    }
};

} // namespace zbp::fault

#endif // ZBP_FAULT_FAULT_INJECTOR_HH
