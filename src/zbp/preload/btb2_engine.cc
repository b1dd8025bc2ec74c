#include "zbp/preload/btb2_engine.hh"

#include <algorithm>

#include "zbp/obs/trace_writer.hh"

namespace zbp::preload
{

Btb2Engine::Btb2Engine(const Btb2EngineParams &p, btb::SetAssocBtb &btb2_,
                       btb::SetAssocBtb &btbp_, SectorOrderTable &sot_,
                       const cache::ICache &icache_)
    : prm(p), btb2(btb2_), btbp(btbp_), sot(sot_), icache(icache_)
{
    ZBP_ASSERT(prm.numTrackers >= 1, "need at least one tracker");
    ZBP_ASSERT(prm.rowReadInterval >= 1, "rowReadInterval must be >= 1");
    const auto rb = btb2.config().rowBytes;
    ZBP_ASSERT(rb == 32 || rb == 64 || rb == 128,
               "BTB2 congruence class must be 32, 64 or 128 bytes");
    trk.resize(prm.numTrackers);
}

unsigned
Btb2Engine::rowsPerSector() const
{
    return kSectorBytes / btb2.config().rowBytes;
}

Tracker *
Btb2Engine::findTracker(Addr block)
{
    for (auto &t : trk)
        if (t.active() && t.block == block)
            return &t;
    return nullptr;
}

Tracker *
Btb2Engine::allocTracker(Addr block)
{
    for (auto &t : trk) {
        if (!t.active()) {
            t = Tracker{};
            t.block = block;
            t.phase = Tracker::Phase::kWaiting;
            ++nAlloc;
            return &t;
        }
    }
    // No free tracker: an I-cache-only tracker (which initiates no
    // searches) may be displaced in favour of a real BTB1 miss.
    for (auto &t : trk) {
        if (t.phase == Tracker::Phase::kWaiting && !t.btb1MissValid) {
            t = Tracker{};
            t.block = block;
            t.phase = Tracker::Phase::kWaiting;
            ++nAlloc;
            return &t;
        }
    }
    return nullptr;
}

void
Btb2Engine::noteBtb1Miss(Addr miss_addr, Cycle now)
{
    nextEventStale = true;
    ++nMissReports;
    const Addr block = blockOf(miss_addr);

    Tracker *t = findTracker(block);
    if (t != nullptr) {
        if (t->btb1MissValid)
            return; // already being handled
        // Pairs with an existing I-cache-miss-only tracker.
        t->btb1MissValid = true;
        t->missAddr = miss_addr;
        t->startableAt = now + prm.startDelay;
        return;
    }

    t = allocTracker(block);
    if (t == nullptr) {
        ++nDropBusy;
        return;
    }
    t->btb1MissValid = true;
    t->missAddr = miss_addr;
    t->startableAt = now + prm.startDelay;
    if (prm.icacheFilter)
        t->icMissValid = icache.blockMissedRecently(miss_addr, now);
    else
        t->icMissValid = true; // no filtering: all misses fully active
}

void
Btb2Engine::noteICacheMiss(Addr addr, Cycle now)
{
    nextEventStale = true;
    ++nIcReports;
    if (!prm.icacheFilter)
        return; // filter disabled: I-cache state is irrelevant

    const Addr block = blockOf(addr);
    if (Tracker *t = findTracker(block)) {
        t->icMissValid = true;
        return;
    }
    // Allocate an I-cache-only tracker if one is free; it initiates no
    // searches but lets a subsequent BTB1 miss in the block go straight
    // to a full search.
    for (auto &t : trk) {
        if (!t.active()) {
            t = Tracker{};
            t.block = block;
            t.phase = Tracker::Phase::kWaiting;
            t.icMissValid = true;
            t.startableAt = now;
            ++nAlloc;
            return;
        }
    }
}

void
Btb2Engine::scheduleFull(Tracker &t)
{
    const SectorOrder order = sot.order(t.missAddr);
    const Addr base = t.block << 12;
    const unsigned partial_sector = sectorOf(t.missAddr);
    const bool skip_partial = t.phase == Tracker::Phase::kPartial;
    const unsigned rows = rowsPerSector();
    const std::uint32_t row_bytes = btb2.config().rowBytes;
    t.schedule.clear();
    for (unsigned i = 0; i < kSectorsPerBlock; ++i) {
        const unsigned s = order.sectors[i];
        if (skip_partial && s == partial_sector)
            continue; // rows already read by the partial search
        const Addr sector_base = base + Addr{s} * kSectorBytes;
        for (unsigned r = 0; r < rows; ++r)
            t.schedule.push_back(sector_base + Addr{r} * row_bytes);
    }
}

void
Btb2Engine::traceSearch(const Tracker &t, Cycle now, const char *kind,
                        const char *end)
{
    const Cycle start = t.searchStartAt;
    tracer->span(obs::TraceWriter::kPidUarch, laneId, "preload",
                 std::string("search:") + kind,
                 static_cast<double>(start),
                 static_cast<double>(now > start ? now - start : 0),
                 {{"block", obs::jsonNum(t.block)},
                  {"rows", obs::jsonNum(std::uint64_t{t.rowsDone})},
                  {"end", obs::jsonStr(end)}});
}

void
Btb2Engine::startSearch(Tracker &t, Cycle now)
{
    t.searchStartAt = now;
    if (t.icMissValid) {
        t.phase = Tracker::Phase::kFull;
        scheduleFull(t);
        ++nFull;
    } else {
        // Partial: the 128-byte sector containing the miss address
        // (paper: "miss address bits 0:56", i.e. 128 B granularity).
        t.phase = Tracker::Phase::kPartial;
        const Addr sector_base = alignDown(t.missAddr, kSectorBytes);
        const std::uint32_t row_bytes = btb2.config().rowBytes;
        t.schedule.clear();
        for (unsigned r = 0; r < rowsPerSector() * prm.partialSectors;
             ++r) {
            t.schedule.push_back(sector_base + Addr{r} * row_bytes);
        }
        ++nPartial;
    }
    t.rowsDone = 0;
}

void
Btb2Engine::finishTracker(Tracker &t, Cycle now)
{
    // §6 future work: multi-block transfer.  A completed full search
    // may chain one follow-on fully-active search for the 4 KB block
    // the transferred branches referenced most, bounded in depth so
    // transfer bandwidth cannot run away ("without careful selection,
    // the number of blocks ... can exponentially exceed the available
    // bandwidth").
    if (prm.multiBlockTransfer && t.phase == Tracker::Phase::kFull &&
        t.chainDepth < prm.maxChainedBlocks && !t.targetBlocks.empty()) {
        Addr best = 0;
        unsigned votes = 0;
        for (const auto &[blk, n] : t.targetBlocks) {
            if (n > votes && blk != t.block &&
                findTracker(blk) == nullptr) {
                best = blk;
                votes = n;
            }
        }
        if (votes >= 2) { // demand at least a little evidence
            const unsigned depth = t.chainDepth;
            t = Tracker{};
            if (Tracker *nt = allocTracker(best)) {
                nt->btb1MissValid = true;
                nt->icMissValid = true;
                nt->missAddr = best << 12;
                nt->startableAt = now + 1;
                nt->chainDepth = depth + 1;
                ++nChained;
            }
            return;
        }
    }
    t = Tracker{};
}

void
Btb2Engine::tick(Cycle now)
{
    nextEventStale = true;
    // Retire pipelined reads: write the hits into the BTBP.
    while (!pipe.empty() && pipe.front().due <= now) {
        const PendingWrite &pw = pipe.front();
        for (unsigned i = 0; i < pw.n; ++i) {
            if (faults != nullptr) {
                // Transfer-path parity: the in-flight copy may be
                // dropped or corrupted without touching the BTB2 row
                // it was read from.
                btb::BtbEntry e = pw.entries[i];
                transferCursor = &e;
                faults->onAccess(fault::Site::kTransfer, e.ia);
                transferCursor = nullptr;
                if (!e.valid)
                    continue; // dropped on the bus
                btbp.install(e);
            } else {
                btbp.install(pw.entries[i]);
            }
            ++nHits;
        }
        pipe.pop_front();
    }

    // Activate trackers whose start delay has elapsed.
    for (auto &t : trk) {
        if (t.phase == Tracker::Phase::kWaiting && t.btb1MissValid &&
            now >= t.startableAt) {
            startSearch(t, now);
        }
    }

    // Issue at most one BTB2 row read per rowReadInterval cycles
    // (single read port; interval > 1 models an eDRAM second level).
    // Partial searches take precedence (small and urgent); full
    // searches share the port round-robin, approximating the paper's
    // demand-quartile-first interleave across blocks.
    if (now < nextReadAt)
        return;
    Tracker *issue = nullptr;
    for (auto &t : trk)
        if (t.phase == Tracker::Phase::kPartial && !t.schedule.empty())
            issue = &t;
    if (issue == nullptr) {
        const auto n = static_cast<unsigned>(trk.size());
        for (unsigned i = 0; i < n; ++i) {
            Tracker &t = trk[(rrNext + i) % n];
            if (t.phase == Tracker::Phase::kFull && !t.schedule.empty()) {
                issue = &t;
                rrNext = (rrNext + i + 1) % n;
                break;
            }
        }
    }
    if (issue == nullptr)
        return;

    Tracker &t = *issue;
    const Addr row_addr = t.schedule.front();

    // CMP mode: the shared read port must grant a slot first.  A
    // rejected request leaves the schedule untouched — the read is
    // retried at the arbiter's hint, so contention delays transfers
    // but never drops rows.  issue_at >= now keeps the pipe
    // due-ordered (nextEventAt depends on that).
    Cycle issue_at = now;
    if (arb != nullptr) {
        const RowGrant g = arb->requestRead(coreId, row_addr, now);
        if (!g.granted) {
            nextReadAt = std::max(g.retryAt, now + 1);
            return;
        }
        issue_at = g.at;
    }

    t.schedule.pop_front();
    ++t.rowsDone;
    ++nRowReads;
    nextReadAt = issue_at + prm.rowReadInterval;
    // The bulk read walks the schedule row by row; hint the next row's
    // planes while this one is decoded into the pending-write pipe.
    if (!t.schedule.empty())
        btb2.prefetchProbe(t.schedule.front());

    const auto hits = btb2.readRow(row_addr);
    PendingWrite pw;
    pw.due = issue_at + prm.pipeDepth;
    for (const auto &h : hits) {
        pw.entries[pw.n++] = h.entry;
        if (prm.semiExclusive)
            btb2.demote(h.row, h.way); // likely replaced by future victims
        if (prm.multiBlockTransfer)
            t.targetBlocks[blockOf(h.entry.target)] += 1;
    }
    if (pw.n != 0)
        pipe.push_back(pw);

    if (!t.schedule.empty())
        return;

    // Phase completed.
    if (t.phase == Tracker::Phase::kPartial) {
        if (t.icMissValid) {
            // The I-cache miss arrived during the partial search:
            // continue with the full steered search.
            if (tracer != nullptr)
                traceSearch(t, now, "partial", "upgraded");
            ++nPartialUpgraded;
            scheduleFull(t);
            t.phase = Tracker::Phase::kFull;
            t.searchStartAt = now;
            t.rowsDone = 0;
        } else {
            if (tracer != nullptr)
                traceSearch(t, now, "partial", "abandoned");
            ++nPartialAbandoned;
            finishTracker(t, now);
        }
    } else {
        if (tracer != nullptr)
            traceSearch(t, now, "full", "done");
        finishTracker(t, now);
    }
}

void
Btb2Engine::functionalPreload(Addr miss_addr, Cycle now)
{
    ZBP_ASSERT(arb == nullptr,
               "functional preload has no arbiter support (CMP mode is "
               "detailed-only)");
    nextEventStale = true;
    ++nMissReports;
    const bool ic_valid = prm.icacheFilter
            ? icache.blockMissedRecently(miss_addr, now)
            : true;
    const std::uint32_t row_bytes = btb2.config().rowBytes;
    const unsigned rows = rowsPerSector();
    // Each hit goes straight from its BTB2 slot into the BTBP; no hit
    // list is built for a transfer that is over at once.
    const auto readRowNow = [&](Addr row_addr) {
        ++nRowReads;
        btb2.visitRow(row_addr, [&](std::uint32_t row, std::uint32_t way) {
            btbp.install(btb2.entryAt(row, way));
            ++nHits;
            if (prm.semiExclusive)
                btb2.demote(row, way);
        });
    };
    if (ic_valid) {
        // Fully active: all rows of the 4 KB block in SOT priority
        // order (the order no longer affects what lands in the BTBP —
        // everything does, instantly — but it keeps the SOT's own
        // hit/miss books moving like a detailed run's).
        ++nFull;
        const SectorOrder order = sot.order(miss_addr);
        const Addr base = blockOf(miss_addr) << 12;
        for (unsigned i = 0; i < kSectorsPerBlock; ++i) {
            const Addr sector_base =
                    base + Addr{order.sectors[i]} * kSectorBytes;
            for (unsigned r = 0; r < rows; ++r)
                readRowNow(sector_base + Addr{r} * row_bytes);
        }
    } else {
        // Partial search of the miss sector.  The detailed machinery
        // would abandon the tracker when no I-cache miss pairs up; the
        // rows are read (and transferred) either way, so the compressed
        // flow books it abandoned immediately.
        ++nPartial;
        ++nPartialAbandoned;
        const Addr sector_base = alignDown(miss_addr, kSectorBytes);
        for (unsigned r = 0; r < rows * prm.partialSectors; ++r)
            readRowNow(sector_base + Addr{r} * row_bytes);
    }
}

Cycle
Btb2Engine::computeNextEventAt() const
{
    // All due stamps are now + pipeDepth with a constant depth, so the
    // deque is due-ordered and the front is the earliest retirement.
    Cycle w = kNoCycle;
    if (!pipe.empty())
        w = std::min(w, pipe.front().due);
    bool rows_pending = false;
    for (const auto &t : trk) {
        if (t.phase == Tracker::Phase::kWaiting && t.btb1MissValid)
            w = std::min(w, t.startableAt);
        if ((t.phase == Tracker::Phase::kPartial ||
             t.phase == Tracker::Phase::kFull) &&
            !t.schedule.empty()) {
            rows_pending = true;
        }
    }
    if (rows_pending)
        w = std::min(w, nextReadAt);
    return w;
}

void
Btb2Engine::attachFaultInjector(fault::FaultInjector &inj)
{
    faults = &inj;
    inj.attach(fault::Site::kTransfer,
               [this](Rng &rng, std::uint64_t) {
                   if (transferCursor == nullptr)
                       return;
                   if (rng.below(2) == 0)
                       transferCursor->valid = false;
                   else
                       transferCursor->target ^= Addr{1} << rng.below(48);
               });
}

void
Btb2Engine::reset()
{
    nextEventStale = true;
    for (auto &t : trk)
        t = Tracker{};
    pipe.clear();
    rrNext = 0;
    nextReadAt = 0;
}

namespace
{

/** BtbEntry flags+direction packed into one byte (bits 0..2 the three
 * bools, bits 3..4 the 2-bit bimodal state). */
std::uint8_t
packEntryMeta(const btb::BtbEntry &e)
{
    return static_cast<std::uint8_t>(
            (e.valid ? 1u : 0u) | (e.phtAllowed ? 2u : 0u) |
            (e.ctbAllowed ? 4u : 0u) | (unsigned{e.dir.raw()} << 3));
}

void
unpackEntryMeta(std::uint8_t m, btb::BtbEntry &e)
{
    e.valid = (m & 1u) != 0;
    e.phtAllowed = (m & 2u) != 0;
    e.ctbAllowed = (m & 4u) != 0;
    e.dir.set(static_cast<std::uint8_t>((m >> 3) & Bimodal2::kMax));
}

} // namespace

void
Btb2Engine::saveState(ckpt::Writer &w) const
{
    state(*this, w);
}

void
Btb2Engine::restoreState(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
Btb2Engine::state(Self &s, Io &io)
{
    io.beginSection(ckpt::tag::kBtb2Engine);
    io.expect(static_cast<std::uint32_t>(s.trk.size()), "tracker count");
    for (auto &t : s.trk) {
        io.enum8(t.phase, Tracker::Phase::kFull, "tracker phase");
        io.u64(t.block);
        io.u64(t.missAddr);
        io.flag(t.btb1MissValid);
        io.flag(t.icMissValid);
        io.u64(t.startableAt);
        io.u64(t.searchStartAt);
        RowSchedule::state(t.schedule, io);
        io.u32(t.rowsDone);
        io.u32(t.chainDepth);
        io.list32(t.targetBlocks, [&io](auto &tb) {
            io.u64(tb.first);
            io.u32(tb.second);
        });
    }
    io.list32(s.pipe, [&io](auto &pw) {
        io.u64(pw.due);
        io.u32(pw.n);
        io.check(pw.n <= btb::kMaxBtbWays, "pending write too wide");
        for (unsigned i = 0; i < pw.n; ++i) {
            auto &e = pw.entries[i];
            io.u64(e.ia);
            io.u64(e.target);
            std::uint8_t m = packEntryMeta(e);
            io.u8(m);
            if constexpr (Io::kReading)
                unpackEntryMeta(m, e);
        }
    });
    io.u32(s.rrNext);
    io.u64(s.nextReadAt);
    io.counter(s.nMissReports);
    io.counter(s.nIcReports);
    io.counter(s.nAlloc);
    io.counter(s.nDropBusy);
    io.counter(s.nFull);
    io.counter(s.nPartial);
    io.counter(s.nPartialAbandoned);
    io.counter(s.nPartialUpgraded);
    io.counter(s.nRowReads);
    io.counter(s.nHits);
    io.counter(s.nChained);
    io.endSection();
    if constexpr (Io::kReading)
        s.nextEventStale = true;
}

} // namespace zbp::preload
