#include "zbp/preload/btb2_arbiter.hh"

#include <algorithm>

#include "zbp/common/log.hh"
#include "zbp/obs/trace_writer.hh"

namespace zbp::preload
{

Btb2Arbiter::Btb2Arbiter(const Btb2ArbiterParams &p,
                         std::uint32_t btb2_row_bytes)
    : prm(p),
      freeAt(p.banks, 0),
      grantsByCore(p.cores, 0),
      waitByCore(p.cores, 0),
      grantsByBank(p.banks, 0)
{
    ZBP_ASSERT(p.cores >= 1, "arbiter needs at least one core");
    ZBP_ASSERT(p.banks >= 1 && (p.banks & (p.banks - 1)) == 0,
               "arbiter bank count must be a power of two");
    ZBP_ASSERT(p.queueDepth >= 1, "arbiter queue depth must be >= 1");
    ZBP_ASSERT(btb2_row_bytes >= 1 &&
                       (btb2_row_bytes & (btb2_row_bytes - 1)) == 0,
               "btb2 row bytes must be a power of two");
    rowShift = 0;
    while ((std::uint32_t{1} << rowShift) < btb2_row_bytes)
        ++rowShift;
}

RowGrant
Btb2Arbiter::requestRead(unsigned core, Addr row, Cycle now)
{
    ZBP_ASSERT(core < prm.cores, "arbiter request from unknown core");
    ++nRequests;
    const unsigned bank = bankOf(row);

    if (faults) {
        faultBank = bank;
        faults->onAccess(fault::Site::kArbiter, row);
    }

    Cycle slot = std::max(now, freeAt[bank]);
    if (prm.policy == ArbPolicy::kTdm && prm.cores > 1) {
        // Round the slot up to this core's next owned time slot.
        const Cycle phase = slot % prm.cores;
        if (phase != core)
            slot += (core + prm.cores - phase) % prm.cores;
    }

    // A conflict is a wait on a busy bank.  Under TDM a request to an
    // idle bank still waits for the core's own slot; that alignment is
    // the policy's fixed cost, not contention.
    const bool busy = freeAt[bank] > now;
    const Cycle wait = slot - now;
    if (wait > prm.queueDepth) {
        ++nRejects;
        RowGrant g;
        g.granted = false;
        g.retryAt = slot - prm.queueDepth;
        if (tracer != nullptr) {
            tracer->instant(
                    obs::TraceWriter::kPidUarch, laneId, "arb",
                    "arb:queue-full", static_cast<double>(now),
                    {{"core", obs::jsonNum(std::uint64_t{core})},
                     {"bank", obs::jsonNum(std::uint64_t{bank})},
                     {"retryAt", obs::jsonNum(g.retryAt)}});
        }
        return g;
    }

    freeAt[bank] = slot + 1;
    ++nGrants;
    ++grantsByCore[core];
    ++grantsByBank[bank];
    if (busy) {
        ++nConflicts;
        nWaitCycles += wait;
        waitByCore[core] += wait;
        if (tracer != nullptr) {
            // Queue residency: request time to granted slot.
            tracer->span(obs::TraceWriter::kPidUarch, laneId, "arb",
                         "arb:bank-wait", static_cast<double>(now),
                         static_cast<double>(wait),
                         {{"core", obs::jsonNum(std::uint64_t{core})},
                          {"bank", obs::jsonNum(std::uint64_t{bank})}});
        }
    }
    RowGrant g;
    g.granted = true;
    g.at = slot;
    return g;
}

void
Btb2Arbiter::attachFaultInjector(fault::FaultInjector &inj)
{
    faults = &inj;
    // A parity hit on queue state forces a replay window: the requested
    // bank stays busy for a few extra cycles.  Timing-only corruption —
    // no grant ever returns a wrong row.
    inj.attach(fault::Site::kArbiter,
               [this](Rng &rng, std::uint64_t /*where*/) {
                   freeAt[faultBank] += 1 + rng.below(8);
               });
}

void
Btb2Arbiter::saveState(ckpt::Writer &w) const
{
    state(*this, w);
}

void
Btb2Arbiter::restoreState(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
Btb2Arbiter::state(Self &s, Io &io)
{
    io.beginSection(ckpt::tag::kArbiter);
    io.expect(s.prm.cores, "arbiter cores");
    io.expect(s.prm.banks, "arbiter banks");
    for (auto &c : s.freeAt)
        io.u64(c);
    io.u32(s.faultBank);
    io.check(s.faultBank < s.prm.banks, "fault bank out of range");
    io.counter(s.nRequests);
    io.counter(s.nGrants);
    io.counter(s.nConflicts);
    io.counter(s.nWaitCycles);
    io.counter(s.nRejects);
    for (std::size_t c = 0; c < s.grantsByCore.size(); ++c) {
        io.u64(s.grantsByCore[c]);
        io.u64(s.waitByCore[c]);
    }
    for (auto &g : s.grantsByBank)
        io.u64(g);
    io.endSection();
}

void
Btb2Arbiter::reset()
{
    std::fill(freeAt.begin(), freeAt.end(), 0);
    std::fill(grantsByCore.begin(), grantsByCore.end(), 0);
    std::fill(waitByCore.begin(), waitByCore.end(), 0);
    std::fill(grantsByBank.begin(), grantsByBank.end(), 0);
    nRequests.reset();
    nGrants.reset();
    nConflicts.reset();
    nWaitCycles.reset();
    nRejects.reset();
}

} // namespace zbp::preload
