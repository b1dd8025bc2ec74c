#include "zbp/core/hierarchy.hh"

#include <algorithm>

namespace zbp::core
{

BranchPredictorHierarchy::BranchPredictorHierarchy(
        const MachineParams &p, btb::SetAssocBtb *shared_btb2)
    : prm(p),
      btb1Ptr(std::make_unique<btb::SetAssocBtb>("btb1", p.btb1)),
      btbpPtr(std::make_unique<btb::SetAssocBtb>("btbp", p.btbp)),
      btb2Ptr(shared_btb2 != nullptr
                      ? nullptr
                      : std::make_unique<btb::SetAssocBtb>("btb2", p.btb2)),
      btb2Use(shared_btb2 != nullptr ? shared_btb2 : btb2Ptr.get()),
      phtTable(p.phtEntries),
      ctbTable(p.ctbEntries),
      sbht(p.surpriseBhtEntries),
      fitTable(p.search.fitEntries)
{
    // Both histories fold against the same table geometry on every
    // prediction/resolve; maintain those folds incrementally across
    // pushes instead of re-walking the path ring per hash extraction.
    specHist.configureHashCache(phtTable.indexWidth(),
                                ctbTable.indexWidth(),
                                phtTable.tagWidth());
    archHist.configureHashCache(phtTable.indexWidth(),
                                ctbTable.indexWidth(),
                                phtTable.tagWidth());
}

CandidateList
BranchPredictorHierarchy::searchFirstLevel(Addr search_addr) const
{
    CandidateList out;

    // Most searches probe sequential code with no stored branches: when
    // both row filters miss, the search is over after two signature
    // loads.
    if (!btb1Ptr->sigHit(search_addr) && !btbpPtr->sigHit(search_addr))
        return out;

    // Both structures probe the same trace address; hint both key
    // planes up front so the BTBP's loads overlap the BTB1's compare.
    btb1Ptr->prefetchProbe(search_addr);
    btbpPtr->prefetchProbe(search_addr);

    // Insertion keeps the list ordered by perceived IA throughout, so
    // the duplicate check and the final sort collapse into the
    // insertion-position scan.
    auto consume = [&](const btb::SetAssocBtb &t, PredictionSource src) {
        const Addr row_base = alignDown(search_addr, t.config().rowBytes);
        for (const auto &h : t.searchFrom(search_addr)) {
            const Addr perceived =
                    row_base + (h.entry.ia & t.config().offsetMask);
            // Collapse duplicates across levels (same perceived IA):
            // BTB1 is consumed first and wins.
            std::size_t pos = 0;
            while (pos < out.size() && out[pos].perceivedIa < perceived)
                ++pos;
            if (pos < out.size() && out[pos].perceivedIa == perceived)
                continue;
            Candidate c;
            c.entry = h.entry;
            c.source = src;
            c.perceivedIa = perceived;
            // MRU-way information affects re-index timing (Table 1).
            c.inMruWay = src == PredictionSource::kBtb1 &&
                         t.isMru(h.row, h.way);
            c.row = h.row;
            c.way = h.way;
            out.insertAt(pos, c);
        }
    };

    consume(*btb1Ptr, PredictionSource::kBtb1);
    consume(*btbpPtr, PredictionSource::kBtbp);

    return out;
}

std::optional<Candidate>
BranchPredictorHierarchy::probeFirstLevel(Addr ia) const
{
    PredictionSource src = PredictionSource::kBtb1;
    std::optional<btb::BtbHit> h = btb1Ptr->lookup(ia);
    if (!h) {
        src = PredictionSource::kBtbp;
        h = btbpPtr->lookup(ia);
        if (!h)
            return std::nullopt;
    }
    return Candidate{h->entry, src, ia,
                     src == PredictionSource::kBtb1 &&
                             btb1Ptr->isMru(h->row, h->way),
                     h->row, h->way};
}

Prediction
BranchPredictorHierarchy::makePrediction(const Candidate &c,
                                         std::uint64_t seq)
{
    Prediction p;
    p.seq = seq;
    p.ia = c.perceivedIa;
    p.source = c.source;
    // Fold the pre-branch speculative history once; the same hashes
    // serve the lookups below and the resolve-time training.  Hint
    // both rows now so their loads overlap the bimodal decision.
    p.hist = hashesOf(specHist);
    prefetchDirTables(p.hist);

    // Direction: bimodal state, PHT override when the entry's gate bit
    // allows it and the PHT has a tag hit.
    bool taken = c.entry.dir.taken();
    if (c.entry.phtAllowed) {
        if (auto d = phtTable.lookupHashed(p.ia, p.hist.phtIndex,
                                           p.hist.phtTagHash)) {
            if (*d != taken)
                ++nPhtOverrides;
            taken = *d;
            p.usedPht = true;
        }
    }
    p.taken = taken;

    // Target: entry target, CTB override when gated on.
    if (taken) {
        p.target = c.entry.target;
        if (c.entry.ctbAllowed) {
            if (auto t = ctbTable.lookupHashed(p.ia, p.hist.ctbIndex)) {
                if (*t != p.target)
                    ++nCtbOverrides;
                p.target = *t;
                p.usedCtb = true;
            }
        }
    }

    // Speculative history update (paper §3.2).  Direction counters are
    // trained at resolve time only: wrong-path predictions never
    // resolve, and letting them update the 2-bit counters was measured
    // to pollute hot entries badly.
    specHist.push(p.ia, taken);
    const btb::BtbEntry updated = c.entry;

    if (c.source == PredictionSource::kBtbp) {
        // Content moves BTBP -> BTB1 upon making a prediction from the
        // BTBP; the BTB1 victim goes to both the BTBP (victim buffer)
        // and the BTB2 (LRU way, made MRU) (paper §3.1, §3.3).
        btbpPtr->invalidate(updated.ia);
        auto victim = btb1Ptr->install(updated);
        ++nPromotions;
        if (victim) {
            btbpPtr->install(*victim);
            if (prm.btb2Enabled) {
                btb2Use->install(*victim);
                ++nVictimsToBtb2;
            }
        }
    } else if (btb1Ptr->holds(c.row, c.way, updated.ia)) {
        // In-place speculative counter update + recency, at the slot
        // the search found.
        btb1Ptr->setDir(c.row, c.way, updated.dir);
        btb1Ptr->touchSlot(c.row, c.way);
    } else if (auto h = btb1Ptr->lookup(updated.ia)) {
        btb1Ptr->setDir(h->row, h->way, updated.dir);
        btb1Ptr->touch(updated.ia);
    }

    ++nPredictions;
    return p;
}

void
BranchPredictorHierarchy::trainAfterResolve(btb::BtbEntry &entry,
                                            const dir::HistoryHashes &hashes,
                                            trace::InstKind kind,
                                            bool taken, Addr target)
{
    const bool bimodal_was_wrong = entry.dir.taken() != taken;

    // Direction training toward the resolved outcome.
    entry.dir.update(taken);

    // PHT: train when gated on; allocate + gate on when the bimodal
    // state mispredicted (multi-directional behaviour detected).
    if (kind == trace::InstKind::kCondBranch) {
        if (entry.phtAllowed) {
            phtTable.updateHashed(entry.ia, hashes.phtIndex,
                                  hashes.phtTagHash, taken,
                                  bimodal_was_wrong);
        } else if (bimodal_was_wrong) {
            phtTable.updateHashed(entry.ia, hashes.phtIndex,
                                  hashes.phtTagHash, taken, true);
            entry.phtAllowed = true;
        }
    }

    // CTB: a taken branch whose target moved is a changing-target
    // branch; gate the CTB on and keep it trained.
    if (taken && target != kNoAddr) {
        if (entry.target != target) {
            ctbTable.updateHashed(entry.ia, hashes.ctbIndex, target);
            entry.ctbAllowed = true;
            entry.target = target;
        } else if (entry.ctbAllowed) {
            ctbTable.updateHashed(entry.ia, hashes.ctbIndex, target);
        }
    }
}

void
BranchPredictorHierarchy::resolvePredicted(const Prediction &pred,
                                           trace::InstKind kind,
                                           bool actual_taken,
                                           Addr actual_target, Cycle now,
                                           const Candidate *found)
{
    (void)now;
    sbht.update(pred.ia, kind, actual_taken);
    archHist.push(pred.ia, actual_taken);

    btb::SetAssocBtb *home = nullptr;
    std::uint32_t row = 0;
    std::uint32_t way = 0;
    if (found != nullptr && found->source == PredictionSource::kBtb1 &&
        btb1Ptr->holds(found->row, found->way, pred.ia)) {
        home = btb1Ptr.get();
        row = found->row;
        way = found->way;
    } else {
        // The entry may have moved between levels since prediction
        // time; find it wherever it lives now.
        std::optional<btb::BtbHit> h = btb1Ptr->lookup(pred.ia);
        if (h) {
            home = btb1Ptr.get();
        } else {
            h = btbpPtr->lookup(pred.ia);
            if (h)
                home = btbpPtr.get();
        }
        if (home == nullptr)
            return; // evicted in flight; nothing to train
        row = h->row;
        way = h->way;
    }

    btb::BtbEntry entry = home->entryAt(row, way);
    trainAfterResolve(entry, pred.hist, kind, actual_taken, actual_target);
    home->update(row, way, entry);
}

void
BranchPredictorHierarchy::resolveSurprise(Addr ia, trace::InstKind kind,
                                          bool taken, Addr target,
                                          Cycle now)
{
    sbht.update(ia, kind, taken);
    archHist.push(ia, taken);

    // The branch may actually be present but was missed by the search
    // flow (latency); train it in place.  Note: archHist already
    // includes this branch (pushed above), matching the pre-hashes
    // behaviour of passing the live architectural history.
    if (auto h = btb1Ptr->lookup(ia)) {
        btb::BtbEntry entry = btb1Ptr->entryAt(h->row, h->way);
        trainAfterResolve(entry, hashesOf(archHist), kind, taken,
                          target);
        btb1Ptr->update(h->row, h->way, entry);
        return;
    }
    if (auto h = btbpPtr->lookup(ia)) {
        btb::BtbEntry entry = btbpPtr->entryAt(h->row, h->way);
        trainAfterResolve(entry, hashesOf(archHist), kind, taken,
                          target);
        btbpPtr->update(h->row, h->way, entry);
        return;
    }

    // Ever-taken branches are installed: surprise installs write the
    // BTBP and the BTB2 (paper §3.1).
    if (taken && target != kNoAddr) {
        const auto e = btb::BtbEntry::freshTaken(ia, target);
        btbpPtr->install(e);
        if (prm.btb2Enabled)
            btb2Use->install(e);
        installCycle.assign(ia, now);
        ++nSurpriseInstalls;
    }
}

void
BranchPredictorHierarchy::preload(Addr ia, Addr target)
{
    btbpPtr->install(btb::BtbEntry::freshTaken(ia, target));
    ++nPreloads;
}

std::optional<Cycle>
BranchPredictorHierarchy::lastInstall(Addr ia) const
{
    const Cycle *c = installCycle.find(ia);
    if (c == nullptr)
        return std::nullopt;
    return *c;
}

void
BranchPredictorHierarchy::reset()
{
    btb1Ptr->reset();
    btbpPtr->reset();
    if (btb2Ptr != nullptr)
        btb2Ptr->reset(); // the shared BTB2 is reset once by its owner
    phtTable.reset();
    ctbTable.reset();
    sbht.reset();
    fitTable.reset();
    specHist.clear();
    archHist.clear();
    installCycle.clear();
}

void
BranchPredictorHierarchy::saveState(ckpt::Writer &w) const
{
    state(*this, w);
}

void
BranchPredictorHierarchy::restoreState(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
BranchPredictorHierarchy::state(Self &s, Io &io)
{
    io.beginSection(ckpt::tag::kHierarchy);
    io.expect(s.ownsBtb2(), "BTB2 ownership");
    FlatAddrMap<Cycle>::state(s.installCycle, io);
    io.counter(s.nPredictions);
    io.counter(s.nPromotions);
    io.counter(s.nVictimsToBtb2);
    io.counter(s.nSurpriseInstalls);
    io.counter(s.nPreloads);
    io.counter(s.nPhtOverrides);
    io.counter(s.nCtbOverrides);
    io.endSection();
    io.part(*s.btb1Ptr);
    io.part(*s.btbpPtr);
    if (s.ownsBtb2())
        io.part(*s.btb2Ptr);
    io.part(s.phtTable);
    io.part(s.ctbTable);
    io.part(s.sbht);
    io.part(s.fitTable);
    io.part(s.specHist);
    io.part(s.archHist);
}

void
BranchPredictorHierarchy::registerStats(stats::Group &g) const
{
    g.add("predictions", nPredictions, "dynamic predictions formed");
    g.add("promotions", nPromotions, "BTBP->BTB1 content moves");
    g.add("victimsToBtb2", nVictimsToBtb2, "BTB1 victims written to BTB2");
    g.add("surpriseInstalls", nSurpriseInstalls,
          "taken surprise branches installed");
    g.add("preloads", nPreloads, "software preload installs");
    g.add("phtOverrides", nPhtOverrides, "PHT direction overrides");
    g.add("ctbOverrides", nCtbOverrides, "CTB target overrides");
    btb1Ptr->registerStats(g);
}

} // namespace zbp::core
