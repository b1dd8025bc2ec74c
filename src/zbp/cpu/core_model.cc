#include "zbp/cpu/core_model.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/obs/interval_sampler.hh"
#include "zbp/obs/trace_writer.hh"

namespace zbp::cpu
{

/** Forward-progress watchdog: far beyond any legitimate stall. */
constexpr Cycle kWatchdogCycles = 5000;

std::string
counterMismatch(const SimResult &a, const SimResult &b)
{
    for (const SimCounter &c : kSimCounters)
        if (a.*c.member != b.*c.member)
            return std::string(c.name) + ": " + std::to_string(a.*c.member) +
                   " != " + std::to_string(b.*c.member);
    if (std::bit_cast<std::uint64_t>(a.cpi) !=
        std::bit_cast<std::uint64_t>(b.cpi)) {
        std::ostringstream os;
        os.precision(17);
        os << "cpi: " << a.cpi << " != " << b.cpi;
        return os.str();
    }
    return {};
}

double
cpiImprovement(const SimResult &base, const SimResult &test)
{
    if (base.cpi == 0.0)
        return 0.0;
    return (base.cpi - test.cpi) / base.cpi * 100.0;
}

std::string
simInvariantError(const SimResult &r)
{
    std::ostringstream err;
    const std::uint64_t outcomes =
            r.correct + r.mispredictDir + r.mispredictTarget +
            r.surpriseCompulsory + r.surpriseLatency + r.surpriseCapacity +
            r.surpriseBenign;
    if (outcomes != r.branches) {
        err << "outcome counts sum to " << outcomes << " but "
            << r.branches << " branches were decoded";
        return err.str();
    }
    if (r.resolves != r.branches) {
        err << r.resolves << " branch resolves for " << r.branches
            << " decoded branches";
        return err.str();
    }
    if (r.takenBranches > r.branches) {
        err << r.takenBranches << " taken branches exceed " << r.branches
            << " branches";
        return err.str();
    }
    if (r.branches > r.instructions) {
        err << r.branches << " branches exceed " << r.instructions
            << " instructions";
        return err.str();
    }
    if (r.instructions != 0) {
        const double cpi = static_cast<double>(r.cycles) /
                           static_cast<double>(r.instructions);
        if (std::abs(cpi - r.cpi) > 1e-9 * (1.0 + cpi)) {
            err << "cpi " << r.cpi << " inconsistent with " << r.cycles
                << " cycles / " << r.instructions << " instructions";
            return err.str();
        }
    }
    return {};
}

CoreModel::CoreModel(const core::MachineParams &p,
                     const SharedCoreContext &shared)
    : prm(p), sharedL2i(shared.l2i), sharedArb(shared.arbiter),
      sharedCoreId(shared.coreId)
{
    prm.validate();
    bp = std::make_unique<core::BranchPredictorHierarchy>(prm,
                                                          shared.btb2);
    l1i = std::make_unique<cache::ICache>(prm.icache);
    sotTable = std::make_unique<preload::SectorOrderTable>(prm.sot);
    if (prm.btb2Enabled) {
        eng = std::make_unique<preload::Btb2Engine>(
                prm.engine, bp->btb2(), bp->btbp(), *sotTable, *l1i);
        if (shared.arbiter != nullptr)
            eng->setArbiter(shared.arbiter, shared.coreId);
    }
    pipe = std::make_unique<core::SearchPipeline>(prm.search, *bp,
                                                  eng.get());
    fetchBuf = RingBuffer<FetchedInst>(prm.cpu.fetchBufferInsts + 1);
}

CoreModel::~CoreModel() = default;

void
CoreModel::attachObs(obs::IntervalWriter *w, std::uint64_t interval,
                     const std::string &config_name)
{
    if (w == nullptr || interval == 0) {
        smp.reset();
        return;
    }
    obsConfigName = config_name;
    smp = std::make_unique<obs::IntervalSampler>(w, interval);

    // The canonical probe set.  Fixed regardless of which components
    // this machine has (absent ones report 0) so every sidecar row has
    // identical columns, and per-core where a shared structure keeps
    // per-core counts so column sums still reproduce aggregates.  The
    // truly global shared counters are reported by core 0 only.
    smp->addProbe("cycles", [this] { return cycle; });
    smp->addProbe("branches", [this] { return nBranches; });
    smp->addProbe("takenBranches", [this] { return nTaken; });
    smp->addProbe("correct",
                  [this] { return outcomes.count(Outcome::kCorrect); });
    smp->addProbe("mispredicts", [this] {
        return outcomes.count(Outcome::kMispredictDir) +
               outcomes.count(Outcome::kMispredictTarget);
    });
    smp->addProbe("surprises", [this] {
        return outcomes.count(Outcome::kSurpriseCompulsory) +
               outcomes.count(Outcome::kSurpriseLatency) +
               outcomes.count(Outcome::kSurpriseCapacity) +
               outcomes.count(Outcome::kSurpriseBenign);
    });
    smp->addProbe("icacheHits", [this] { return l1i->hits(); });
    smp->addProbe("icacheMisses", [this] { return l1i->misses(); });
    smp->addProbe("btb1MissReports",
                  [this] { return pipe->missReportCount(); });
    smp->addProbe("predictions",
                  [this] { return pipe->predictionCount(); });
    smp->addProbe("btb2RowReads",
                  [this] { return eng ? eng->rowReads() : 0; });
    smp->addProbe("btb2Transfers",
                  [this] { return eng ? eng->hitsTransferred() : 0; });
    smp->addProbe("btb2FullSearches",
                  [this] { return eng ? eng->fullSearchCount() : 0; });
    smp->addProbe("btb2PartialSearches",
                  [this] { return eng ? eng->partialSearchCount() : 0; });
    smp->addProbe("sotHits", [this] { return sotTable->hitCount(); });
    smp->addProbe("sotMisses", [this] { return sotTable->missCount(); });
    smp->addProbe("l2iHits", [this] {
        return sharedL2i ? sharedL2i->coreHits()[sharedCoreId] : 0;
    });
    smp->addProbe("l2iMisses", [this] {
        return sharedL2i ? sharedL2i->coreMisses()[sharedCoreId] : 0;
    });
    smp->addProbe("arbGrants", [this] {
        return sharedArb ? sharedArb->coreGrants()[sharedCoreId] : 0;
    });
    smp->addProbe("arbWaitCycles", [this] {
        return sharedArb ? sharedArb->coreWaitCycles()[sharedCoreId] : 0;
    });
    smp->addProbe("arbConflicts", [this] {
        return sharedArb != nullptr && sharedCoreId == 0
                       ? sharedArb->conflicts()
                       : 0;
    });
    smp->addProbe("arbQueueFullRejects", [this] {
        return sharedArb != nullptr && sharedCoreId == 0
                       ? sharedArb->queueFullRejects()
                       : 0;
    });
}

void
CoreModel::attachTracer(obs::TraceWriter *t)
{
    tracer = t;
    if (t == nullptr) {
        if (eng)
            eng->setTracer(nullptr, 0);
        return;
    }
    const std::string core_tag = "core" + std::to_string(sharedCoreId);
    if (eng)
        eng->setTracer(t, t->newLane(obs::TraceWriter::kPidUarch,
                                     core_tag + " preload"));
}

inline void
CoreModel::restartFrontEnd(Addr addr, Cycle at)
{
    pipe->restart(addr, at);
    bp->restartSpeculation();
    lastRestartCycle = at;
}

inline void
CoreModel::applyResolve(const ResolveEvent &ev, const core::Candidate *found)
{
    switch (ev.kind) {
      case ResolveEvent::Kind::kPredicted:
        bp->resolvePredicted(ev.pred, ev.ikind, ev.taken, ev.target, ev.at,
                             found);
        ++nResolves;
        break;
      case ResolveEvent::Kind::kSurprise:
        bp->resolveSurprise(ev.ia, ev.ikind, ev.taken, ev.target, ev.at);
        ++nResolves;
        break;
      case ResolveEvent::Kind::kRestart:
        restartFrontEnd(ev.restartAddr, ev.at);
        break;
    }
}

inline void
CoreModel::resolveLater(ResolveEvent &ev)
{
    if (functional) {
        // No resolve pipeline to wait on: train (or restart) now, at
        // the slot the decode's probe found.
        ev.at = cycle;
        applyResolve(ev, &probed);
        return;
    }
    ev.at = cycle + prm.cpu.decodeToResolve;
    events.push_back(ev);
}

inline void
CoreModel::resolveBranch(const trace::Instruction &inst,
                         const core::Prediction *p)
{
    ResolveEvent ev;
    if (p != nullptr) {
        ev.kind = ResolveEvent::Kind::kPredicted;
        ev.pred = *p;
    } else {
        ev.kind = ResolveEvent::Kind::kSurprise;
        ev.ia = inst.ia;
    }
    ev.ikind = inst.kind;
    ev.taken = inst.taken;
    ev.target = inst.taken ? inst.target() : kNoAddr;
    resolveLater(ev);
}

void
CoreModel::scheduleRestart(Addr addr)
{
    ResolveEvent ev;
    ev.kind = ResolveEvent::Kind::kRestart;
    ev.restartAddr = addr;
    resolveLater(ev);
}

// ---- detailed-run stages (advance()) --------------------------------
//
// Components whose tick is a strict no-op before their wake-up cycle are
// gated here instead of paying the call: the guards are the same
// conditions the ticks re-check internally.  The per-cycle stages are
// inline so the loop pays no call for a gated-off stage.

inline void
CoreModel::pollCancel()
{
    if (cancel != nullptr && (++cancelPoll & 0xFFF) == 0 &&
        cancel->load(std::memory_order_relaxed))
        throw SimCancelled(cancelledMessage());
}

std::string
CoreModel::cancelledMessage() const
{
    return std::string("simulation cancelled") +
           (functional ? " (functional)" : "") + " at cycle " +
           std::to_string(cycle) + " (" + std::to_string(decodeIdx) +
           " of " + std::to_string(tr->size()) + " instructions decoded)";
}

inline void
CoreModel::processEvents()
{
    while (!events.empty() && events.front().at <= cycle) {
        // Dispatch from a reference and pop afterwards: applyResolve
        // never enqueues events, so the slot cannot be reused/moved
        // underneath us, and skipping the ~200-byte copy matters on
        // this per-resolve path.
        applyResolve(events.front());
        events.pop_front();
    }
}

inline void
CoreModel::searchTick()
{
    if (pipe->nextEventAt() <= cycle)
        pipe->tick(cycle);
}

inline void
CoreModel::engineTick()
{
    if (eng && eng->nextEventAt() <= cycle)
        eng->tick(cycle);
}

void
CoreModel::fetchTick()
{
    const auto &t = *tr;
    const Cycle now = cycle;
    if (fetchIdx >= t.size())
        return;

    // Stall resolution.
    if (fetchStall == FetchStall::kWaitPrediction) {
        // Waiting on a usable taken prediction for the branch just
        // fetched (trace[fetchIdx - 1]).
        ZBP_ASSERT(fetchIdx >= 1, "wait-prediction stall with no branch");
        const auto &br = t[fetchIdx - 1];
        const core::Prediction *p = findFetchPredFor(br.ia);
        if (p != nullptr && p->availableAt <= now) {
            if (p->taken && p->target == br.target()) {
                // The prediction caught up and steers fetch onward.
                fetchSeqCursor = p->seq;
                fetchStall = FetchStall::kNone;
                fetchResumeAt = kNoCycle;
            } else {
                // Wrong direction or target: fetch goes down the bogus
                // path until the decode/resolve restart.
                fetchSeqCursor = p->seq;
                fetchStall = FetchStall::kWaitResume;
                return;
            }
        } else if (fetchResumeAt != kNoCycle && now >= fetchResumeAt) {
            fetchStall = FetchStall::kNone;
            fetchResumeAt = kNoCycle;
        } else {
            return;
        }
    }
    if (fetchStall == FetchStall::kWaitResume) {
        if (fetchResumeAt != kNoCycle && now >= fetchResumeAt) {
            fetchStall = FetchStall::kNone;
            fetchResumeAt = kNoCycle;
        } else {
            return;
        }
    }
    if (now < fetchBlockedUntil)
        return;

    unsigned budget = prm.cpu.fetchBytesPerCycle;

    while (budget > 0 && fetchIdx < t.size() &&
           fetchBuf.size() < prm.cpu.fetchBufferInsts) {
        const auto &inst = t[fetchIdx];
        if (inst.length > budget)
            break;

        if (const Addr miss = fetchLines(
                    inst, alignDown(inst.ia, prm.icache.lineBytes));
            miss != kNoAddr) {
            if (eng)
                eng->noteICacheMiss(miss, now);
            // Single core: infinite L2, fixed latency (paper §4).
            // CMP with a shared L2I: the fill latency depends on
            // whether a sibling already pulled the line in.
            const std::uint32_t lat = sharedL2i != nullptr
                    ? sharedL2i->fetchMiss(sharedCoreId, miss,
                                           prm.icache.missLatency)
                    : prm.icache.missLatency;
            fetchBlockedUntil = now + lat;
            return; // retry this instruction after the fill
        }

        budget -= inst.length;
        fetchBuf.push_back({fetchIdx, now + prm.cpu.fetchToDecode});
        ++fetchIdx;

        // Control flow: consume the prediction stream *in order*.  Only
        // the next unconsumed prediction may attach to this instruction;
        // deeper queue entries belong to later path positions (possibly
        // future dynamic occurrences of the same branch).
        bool redirected = false;
        const core::Prediction *p;
        while ((p = nextFetchPred()) != nullptr && p->ia >= inst.ia &&
               p->ia < inst.ia + inst.length) {
            if (!p->taken) {
                // Not-taken predictions never steer fetch.
                fetchSeqCursor = p->seq;
                continue;
            }
            if (p->availableAt > now) {
                if (inst.branch() && inst.taken)
                    break; // handled by the wait-prediction stall below
                // A late taken prediction pointing into a sequential
                // instruction cannot redirect fetch in time; skip it.
                fetchSeqCursor = p->seq;
                continue;
            }
            // Usable taken prediction.
            fetchSeqCursor = p->seq;
            if (inst.branch() && inst.taken && p->ia == inst.ia &&
                p->target == inst.target()) {
                // Seamless prediction-steered redirect: the next trace
                // instruction *is* the target.
                lastFetchLine = kNoAddr;
                redirected = true;
                break;
            }
            // Phantom or wrong direction/target: fetch follows the
            // bogus target until the restart decode will arrange.
            fetchStall = FetchStall::kWaitResume;
            return;
        }
        if (redirected)
            return;

        if (inst.branch() && inst.taken) {
            // The in-order scan found nothing, but the prediction may
            // sit deeper in the queue behind stragglers emitted after
            // fetch already passed their instructions.
            const core::Prediction *bp_ = findFetchPredFor(inst.ia);
            if (bp_ != nullptr && bp_->availableAt <= now) {
                fetchSeqCursor = bp_->seq;
                if (bp_->taken && bp_->target == inst.target()) {
                    lastFetchLine = kNoAddr;
                    return; // seamless redirect
                }
                fetchStall = FetchStall::kWaitResume;
                return;
            }
            // No usable prediction (yet): wait for one, or for the
            // decode/resolve redirect.
            fetchStall = FetchStall::kWaitPrediction;
            lastFetchLine = kNoAddr;
            return;
        }
    }
}

inline Addr
CoreModel::fetchLines(const trace::Instruction &inst, Addr from)
{
    const std::uint32_t line_bytes = prm.icache.lineBytes;
    const Addr last = alignDown(inst.ia + inst.length - 1, line_bytes);
    for (Addr line = from; line <= last; line += line_bytes) {
        if (line == lastFetchLine)
            continue;
        lastFetchLine = line;
        if (!l1i->access(line, cycle))
            return line;
    }
    return kNoAddr;
}

std::size_t
CoreModel::firstUnconsumedPred() const
{
    // The queue holds consecutive sequence numbers (one producer,
    // front-only pops), so the first entry past the cursor sits at a
    // directly computable index instead of needing a scan.
    const auto &q = pipe->queue();
    if (q.empty())
        return 0;
    const std::uint64_t front_seq = q.front().seq;
    return front_seq > fetchSeqCursor
            ? 0
            : static_cast<std::size_t>(fetchSeqCursor - front_seq + 1);
}

const core::Prediction *
CoreModel::nextFetchPred() const
{
    const auto &q = pipe->queue();
    const std::size_t i = firstUnconsumedPred();
    return i < q.size() ? &q[i] : nullptr;
}

const core::Prediction *
CoreModel::findFetchPredFor(Addr ia) const
{
    // Predictions can be emitted behind fetch (the search catching up
    // after a restart); skip such stragglers and take the first
    // unconsumed prediction for this branch address.
    const auto &q = pipe->queue();
    for (std::size_t i = firstUnconsumedPred(); i < q.size(); ++i)
        if (q[i].ia == ia)
            return &q[i];
    return nullptr;
}

void
CoreModel::decodeTick()
{
    if (cycle < decodeBlockedUntil)
        return;
    const auto &t = *tr;
    for (unsigned w = 0; w < prm.cpu.decodeWidth; ++w) {
        if (decodeIdx >= t.size())
            return;
        if (fetchBuf.empty())
            return;
        const FetchedInst &f = fetchBuf.front();
        ZBP_ASSERT(f.idx == decodeIdx, "fetch/decode desynchronized");
        if (f.ready > cycle)
            return;
        fetchBuf.pop_front();
        decodeOne(t[decodeIdx]);
        if (cycle < decodeBlockedUntil)
            return; // a restart or operand miss stopped this decode group
    }
}

inline void
CoreModel::obsTick()
{
    if (smp != nullptr && decodeIdx >= smp->nextAt())
        smp->sample(decodeIdx);
}

inline void
CoreModel::watchdogTick()
{
    if (decodeIdx != lastDecodeIdx) {
        lastDecodeIdx = decodeIdx;
        lastProgressAt = cycle;
    } else if (cycle - lastProgressAt > kWatchdogCycles) {
        watchdogReset();
    }
}

void
CoreModel::watchdogReset()
{
    // Pathological livelock (possible under heavy tag aliasing:
    // phantom-prediction storms whose queue entries never align with
    // decoded instructions).  Real machines recover from bogus-branch
    // corner cases with a full pipeline reset; model the same and
    // charge a restart penalty.
    pipe->restart((*tr)[decodeIdx].ia, cycle);
    bp->restartSpeculation();
    refetchFromDecode(FetchStall::kNone, kNoCycle);
    decodeBlockedUntil = cycle + prm.cpu.restartPenalty;
    ++nWatchdogResets;
    lastProgressAt = cycle;
}

inline void
CoreModel::nextCycle()
{
    ++cycle;
    // Idle-skip: jump over cycles in which no component can act.  All
    // state transitions happen at computed wake-up cycles, so this is
    // observationally equivalent to per-cycle ticking (the golden-
    // counter tests pin this).  The final loop exit keeps the per-cycle
    // count: no skip once decode has finished.  Fast path: while fetch
    // streams sequentially it can act every cycle, so the wake-up is
    // `cycle` itself — don't compute it.
    const std::size_t n = tr->size();
    if (decodeIdx < n &&
        !(fetchStall == FetchStall::kNone && fetchIdx < n &&
          fetchBlockedUntil <= cycle &&
          fetchBuf.size() < prm.cpu.fetchBufferInsts))
        cycle = std::max(cycle, nextWakeAt(cycle - 1, lastProgressAt));
}

std::string
CoreModel::wedgedMessage() const
{
    std::ostringstream msg;
    msg << "simulation wedged: cycle " << cycle << " decodeIdx "
        << decodeIdx << " of " << tr->size() << " fetchIdx " << fetchIdx
        << " stall " << static_cast<int>(fetchStall) << " fetchResumeAt "
        << fetchResumeAt << " fetchBlockedUntil " << fetchBlockedUntil
        << " decodeBlockedUntil " << decodeBlockedUntil
        << " fetchSeqCursor " << fetchSeqCursor << " fetchBuf "
        << fetchBuf.size() << " events " << events.size() << " searchAddr "
        << pipe->searchAddress() << " active " << pipe->active();
    const auto &q = pipe->queue();
    for (std::size_t i = 0; i < q.size() && i < 8; ++i)
        msg << "; q[" << i << "] seq " << q[i].seq << " ia 0x" << std::hex
            << q[i].ia << " taken " << q[i].taken << " target 0x"
            << q[i].target << std::dec << " avail " << q[i].availableAt;
    return msg.str();
}

// ---- the decode step, shared by both modes --------------------------

void
CoreModel::decodeOne(const trace::Instruction &inst)
{
    curNextIa = inst.nextIa();
    // Completion-time pattern tracking for the Sector Order Table
    // (approximated at decode; the model retires in order).
    sotTable->instructionCompleted(inst.ia);
    ++decodeIdx;

    core::Prediction p;
    const PredictionFor src = functional ? searchPrediction(inst, p)
                                         : takePrediction(inst, p);
    if (src != PredictionFor::kFlushed && inst.branch()) {
        ++nBranches;
        if (inst.taken)
            ++nTaken;
        if (src == PredictionFor::kFound)
            decodePredicted(inst, p);
        else
            decodeSurprise(inst);
    }

    // Operand access: a finite L1 D-cache (Table 5: 96 KB, 6-way) miss
    // stalls the in-order consume for the L2 latency.  Identical across
    // configurations, so CPI differences stay branch-driven — which is
    // what lets every run read the outcome from a per-trace precomputed
    // map.  Traces without operand addresses fall back to a
    // deterministic background stall.
    if (inst.dataAddr() != kNoAddr && prm.dcacheEnabled) {
        ++nDataAccesses;
        if (dmiss[decodeIdx - 1] != 0) {
            ++nDataMisses;
            stallDecodeUntil(cycle + prm.dcache.missLatency +
                             prm.cpu.dcacheMissExtra);
        }
    } else if (prm.cpu.dataStallProb > 0.0) {
        std::uint64_t h = inst.ia * 0x9E3779B97F4A7C15ull +
                          decodeIdx * 0xBF58476D1CE4E5B9ull;
        h ^= h >> 29;
        const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
        if (u < prm.cpu.dataStallProb)
            stallDecodeUntil(cycle + prm.cpu.dataStallCycles);
    }
}

CoreModel::PredictionFor
CoreModel::searchPrediction(const trace::Instruction &inst,
                            core::Prediction &out)
{
    // No lookahead search runs ahead of decode: look the branch up in
    // the first level now.  A prediction made here is never late
    // (availableAt stays 0).
    if (!inst.branch())
        return PredictionFor::kNone;
    const std::optional<core::Candidate> c = bp->probeFirstLevel(inst.ia);
    if (!c)
        return PredictionFor::kNone;
    probed = *c;
    out = bp->makePrediction(probed, 0);
    return PredictionFor::kFound;
}

inline CoreModel::PredictionFor
CoreModel::takePrediction(const trace::Instruction &inst,
                          core::Prediction &out)
{
    // Pop the queued predictions that land inside this instruction.
    auto &q = pipe->queue();
    while (!q.empty()) {
        const core::Prediction &p = q.front();
        // Predictions arrive in path order, so a front entry at or past
        // the end of this instruction belongs to a later instruction; a
        // front entry *before* this instruction is stale (an aliasing
        // phantom that fell inside another instruction's bytes).
        if (p.ia >= inst.ia + inst.length)
            break;
        if (p.ia == inst.ia && inst.branch()) {
            out = p;
            q.pop_front();
            return PredictionFor::kFound;
        }
        // Phantom: a prediction for an address that is not a branch
        // (only possible under tag aliasing).
        const bool phantom_taken = p.taken;
        q.pop_front();
        outcomes.record(Outcome::kPhantom);
        if (phantom_taken) {
            // Fetch and the search both went to a bogus target; restart
            // them on the fallthrough path right away (decode-time
            // detection of the bogus branch).
            redirectAtDecode(curNextIa);
            stallDecodeUntil(cycle + 1);
            return PredictionFor::kFlushed;
        }
    }
    return PredictionFor::kNone;
}

void
CoreModel::decodePredicted(const trace::Instruction &inst,
                           const core::Prediction &p)
{
    (void)outcomes.seenBefore(inst.ia);
    // Resolve-time training for the prediction either way.
    resolveBranch(inst, &p);
    // The hashes were frozen at prediction time; hint the PHT/CTB rows
    // they address so resolve-time training (decodeToResolve cycles of
    // sim time, but soon in wall time) finds the lines resident.
    bp->prefetchDirTables(p.hist);

    if (p.availableAt > cycle) {
        // The prediction exists but broadcast too late: the branch is
        // handled as a surprise (paper: "prediction falling behind
        // decode" — a latency miss).
        applySurpriseTiming(inst, bookSurprise(inst, true));
        // The search pipeline committed to the (late) prediction's
        // path; if that disagrees with reality it needs a restart even
        // when the surprise handling itself didn't schedule one.
        if (!inst.taken && p.taken)
            scheduleRestart(curNextIa);
        return;
    }

    const bool dir_ok = p.taken == inst.taken;
    const bool tgt_ok = !inst.taken || !p.taken || p.target == inst.target();
    outcomes.record(dir_ok && tgt_ok ? Outcome::kCorrect
                    : dir_ok         ? Outcome::kMispredictTarget
                                     : Outcome::kMispredictDir);
    if (!(dir_ok && tgt_ok))
        restartAtResolve(curNextIa, prm.cpu.restartPenalty);
}

void
CoreModel::decodeSurprise(const trace::Instruction &inst)
{
    const bool guess = bookSurprise(inst, false);
    if (eng != nullptr) {
        if (functional) {
            // No search pipeline runs, so there is no fruitless-search
            // miss detection: the surprise stands in for a BTB1 miss
            // report under either miss definition, and the whole miss-
            // report -> tracker -> bulk-transfer flow compresses into
            // one immediate preload.
            eng->functionalPreload(inst.ia, cycle);
        } else if (prm.decodeTimeMissReports) {
            eng->noteBtb1Miss(inst.ia, cycle);
        }
    }
    resolveBranch(inst, nullptr);
    applySurpriseTiming(inst, guess);
}

bool
CoreModel::bookSurprise(const trace::Instruction &inst, bool late_prediction)
{
    const bool guess = bp->surpriseBht().guessTaken(inst.ia, inst.kind);
    outcomes.record(!guess && !inst.taken ? Outcome::kSurpriseBenign
                    : late_prediction     ? Outcome::kSurpriseLatency
                                          : classifySurprise(inst));
    return guess;
}

Outcome
CoreModel::classifySurprise(const trace::Instruction &inst)
{
    const bool seen = outcomes.seenBefore(inst.ia);
    if (!seen)
        return Outcome::kSurpriseCompulsory;
    // "Latency" covers predictions falling behind decode and surprise
    // installs whose table write had not landed yet (paper §5.1).  The
    // search falls behind right after a restart; an entry that is
    // present but unpredicted outside that window is a capacity miss
    // the content-movement machinery failed to serve in time.
    if (auto t = bp->lastInstall(inst.ia)) {
        if (cycle - *t <= prm.cpu.installLatencyWindow)
            return Outcome::kSurpriseLatency;
    }
    const bool present =
            bp->btb1().lookup(inst.ia).has_value() ||
            bp->btbp().lookup(inst.ia).has_value();
    if (present && cycle - lastRestartCycle <= prm.cpu.installLatencyWindow)
        return Outcome::kSurpriseLatency;
    return Outcome::kSurpriseCapacity;
}

void
CoreModel::applySurpriseTiming(const trace::Instruction &inst, bool guess)
{
    if (!guess && !inst.taken)
        return; // truly benign: sequential flow was correct
    if (guess && inst.taken && trace::isDirectBranch(inst.kind)) {
        // Decode-time redirect: the statically guessed target of a
        // direct branch is the real target.
        redirectAtDecode(inst.target());
        return;
    }
    // Everything else waits for the resolve: a direct branch guessed
    // taken that falls through (the decode-time redirect went down the
    // wrong path), an indirect or return whose target only the resolve
    // knows (no restart penalty beyond the bubble when the guess was
    // right), or a taken branch guessed not-taken.
    restartAtResolve(inst.taken ? inst.target() : curNextIa,
                     guess && inst.taken ? 1 : prm.cpu.restartPenalty);
}

// ---- what a stall costs: the one place the modes' timing differs ----

inline void
CoreModel::stallDecodeUntil(Cycle until)
{
    Cycle &c = functional ? cycle : decodeBlockedUntil;
    c = std::max(c, until);
}

void
CoreModel::redirectAtDecode(Addr addr)
{
    restartFrontEnd(addr, cycle);
    if (functional) {
        stallDecodeUntil(cycle + 2); // the fetch-to-decode refill bubble
        return;
    }
    // Fetch resumes next cycle; the bubble is the fetch-to-decode refill.
    refetchFromDecode(FetchStall::kWaitResume, cycle + 1);
}

void
CoreModel::restartAtResolve(Addr addr, Cycle decode_stall)
{
    scheduleRestart(addr);
    const Cycle resolve_at = cycle + prm.cpu.decodeToResolve;
    if (functional) {
        // Estimate: the whole resolve latency plus the restart penalty.
        stallDecodeUntil(resolve_at + prm.cpu.restartPenalty);
        return;
    }
    // Decode drains; fetch and search resume on the corrected path
    // after the resolve.
    stallDecodeUntil(resolve_at + decode_stall);
    refetchFromDecode(FetchStall::kWaitResume, resolve_at + 1);
}

void
CoreModel::refetchFromDecode(FetchStall stall, Cycle resume_at)
{
    // The instructions already fetched past the current decode point
    // were (conceptually) squashed; refetch them when fetch resumes.
    fetchBuf.clear();
    fetchIdx = decodeIdx;
    fetchStall = stall;
    fetchResumeAt = resume_at;
    lastFetchLine = kNoAddr;
    // Refetched instructions must re-see their still-queued
    // predictions: rewind the fetch cursor to just before the oldest
    // prediction decode has not consumed yet.
    if (!pipe->queue().empty())
        fetchSeqCursor = pipe->queue().front().seq - 1;
}

Cycle
CoreModel::nextWakeAt(Cycle now, Cycle last_progress_at) const
{
    // The watchdog compares against the current cycle, so the loop may
    // never skip past the first cycle on which it would fire.
    Cycle w = last_progress_at + kWatchdogCycles + 1;

    // Resolve/restart events are appended with a constant decode-to-
    // resolve delta, so the deque is time-ordered and the front is the
    // earliest (processEvents already relies on this).
    if (!events.empty())
        w = std::min(w, events.front().at);

    w = std::min(w, pipe->nextEventAt());
    if (eng)
        w = std::min(w, eng->nextEventAt());

    // Decode: acts once both its stall and the front fetch-buffer
    // entry's ready cycle have elapsed.
    if (!fetchBuf.empty())
        w = std::min(w, std::max(decodeBlockedUntil,
                                 fetchBuf.front().ready));

    // Fetch.  Candidates may lie at or before now (a no-op recheck is
    // harmless — waking too early is always safe, only waking late
    // would change behaviour); the caller clamps to now + 1.
    if (fetchIdx < tr->size()) {
        switch (fetchStall) {
          case FetchStall::kWaitPrediction: {
            // Wakes when the matching prediction broadcasts or the
            // resume cycle arrives; a *new* matching prediction can
            // only appear on a search-pipeline event, covered above.
            const core::Prediction *p =
                    findFetchPredFor((*tr)[fetchIdx - 1].ia);
            if (p != nullptr)
                w = std::min(w, p->availableAt);
            if (fetchResumeAt != kNoCycle)
                w = std::min(w, fetchResumeAt);
            break;
          }
          case FetchStall::kWaitResume:
            // An unset resume cycle means the redirect that will set it
            // is still in flight in decode or the event queue, both
            // covered above.
            if (fetchResumeAt != kNoCycle)
                w = std::min(w, fetchResumeAt);
            break;
          case FetchStall::kNone:
            // A full buffer unblocks via decode draining it, covered
            // above; otherwise fetch runs again as soon as the I-cache
            // fill (if any) completes.
            if (fetchBuf.size() < prm.cpu.fetchBufferInsts)
                w = std::min(w, std::max(fetchBlockedUntil, now + 1));
            break;
        }
    }
    return w;
}

SimResult
CoreModel::run(const trace::Trace &t)
{
    beginRun(t);
    advance(t.size());
    return finishRun();
}

void
CoreModel::beginRun(const trace::Trace &t)
{
    if (t.empty())
        throw std::invalid_argument("cannot simulate an empty trace");
    if (sharedDmiss != nullptr && sharedDmiss->size() != t.size())
        throw std::invalid_argument(
                "attached data-miss map does not match the trace (" +
                std::to_string(sharedDmiss->size()) + " vs " +
                std::to_string(t.size()) + " instructions)");
    ZBP_ASSERT(!runActive, "beginRun() while a run is active");
    tr = &t;
    if (prm.dcacheEnabled && sharedDmiss == nullptr)
        ownDmiss = cache::computeDataMissMap(t, prm.dcache);
    dmiss = sharedDmiss != nullptr ? sharedDmiss->data() : ownDmiss.data();
    fetchIdx = 0;
    decodeIdx = 0;
    fetchBuf.clear();
    fetchStall = FetchStall::kNone;
    fetchResumeAt = kNoCycle;
    fetchBlockedUntil = 0;
    decodeBlockedUntil = 0;
    events.clear();
    nTaken = 0;
    nBranches = 0;
    nDataAccesses = 0;
    nDataMisses.reset();
    nWatchdogResets = 0;
    nResolves = 0;
    fetchSeqCursor = 0;
    restartFrontEnd(t[0].ia, 0); // also zeroes lastRestartCycle

    cycle = 0;
    maxCycles = 1000 + t.size() * 300;
    lastProgressAt = 0;
    lastDecodeIdx = 0;
    cancelPoll = 0;
    runActive = true;

    if (smp) {
        smp->setIdentity(t.name(), obsConfigName, sharedCoreId);
        smp->beginRun();
    }
}

bool
CoreModel::advance(std::size_t decode_target)
{
    ZBP_ASSERT(runActive, "advance() without beginRun()");
    const std::size_t target = std::min(decode_target, tr->size());
    // This is the run loop of run(), cut at decode boundaries: all loop
    // state is member state, and the exit condition is the only thing a
    // smaller target changes, so any monotone sequence of targets
    // replays the exact cycle-by-cycle history of a single full run.
    while (decodeIdx < target) {
        pollCancel();
        processEvents();
        searchTick();
        engineTick();
        fetchTick();
        decodeTick();
        obsTick();
        watchdogTick();
        nextCycle();
        if (cycle > maxCycles)
            throw std::runtime_error(wedgedMessage());
    }
    return decodeIdx >= tr->size();
}

void
CoreModel::functionalResync()
{
    // Re-establish the drained-machine invariants a detailed advance()
    // (or saveState/restoreState round-trip) expects: empty fetch
    // buffer, empty event queue, fetch aligned with decode, and the
    // search pipeline restarted at the resume point.
    // The restart flushes the prediction queue first, so the refetch
    // keeps fetchSeqCursor: it only ever holds consumed seqs, all below
    // anything the pipeline will emit next.
    if (decodeIdx < tr->size())
        restartFrontEnd((*tr)[decodeIdx].ia, cycle);
    refetchFromDecode(FetchStall::kNone, kNoCycle);
    fetchBlockedUntil = cycle;
    decodeBlockedUntil = cycle;
    lastProgressAt = cycle;
    lastDecodeIdx = decodeIdx;
}

bool
CoreModel::advanceFunctional(std::size_t decode_target)
{
    ZBP_ASSERT(runActive, "advanceFunctional() without beginRun()");
    if (!events.empty() || !fetchBuf.empty())
        throw std::logic_error(
                "advanceFunctional() requires a drained machine: call it "
                "after beginRun() or another advanceFunctional(), not "
                "after a detailed advance() mid-trace");
    if (sharedL2i != nullptr || sharedArb != nullptr)
        throw std::logic_error("advanceFunctional() does not support "
                               "CMP-shared structures");
    const trace::Trace &t = *tr;
    const std::size_t target = std::min(decode_target, t.size());
    const std::uint32_t line_bytes = prm.icache.lineBytes;
    functional = true;
    try {
        while (decodeIdx < target) {
            pollCancel();
            const trace::Instruction &inst = t[decodeIdx];
            // I-cache: touch the line(s) the instruction spans, charging
            // each fill as a straight-line estimate (no overlap).
            for (Addr miss = fetchLines(inst, alignDown(inst.ia, line_bytes));
                 miss != kNoAddr; miss = fetchLines(inst, miss + line_bytes))
                cycle += prm.icache.missLatency;
            decodeOne(inst);
            // Decode bandwidth: one cycle per decodeWidth instructions.
            // Keyed on the absolute cursor so chunked calls compose.
            if (decodeIdx % prm.cpu.decodeWidth == 0)
                ++cycle;
        }
    } catch (...) {
        functional = false;
        functionalResync();
        throw;
    }
    functional = false;
    functionalResync();
    return decodeIdx >= t.size();
}

SimResult
CoreModel::countersSoFar() const
{
    SimResult r;
    r.traceName = tr->name();
    r.cycles = cycle;
    r.instructions = decodeIdx;
    r.cpi = decodeIdx == 0 ? 0.0
                           : static_cast<double>(cycle) /
                                     static_cast<double>(decodeIdx);
    r.branches = nBranches;
    r.takenBranches = nTaken;
    r.correct = outcomes.count(Outcome::kCorrect);
    r.mispredictDir = outcomes.count(Outcome::kMispredictDir);
    r.mispredictTarget = outcomes.count(Outcome::kMispredictTarget);
    r.surpriseCompulsory = outcomes.count(Outcome::kSurpriseCompulsory);
    r.surpriseLatency = outcomes.count(Outcome::kSurpriseLatency);
    r.surpriseCapacity = outcomes.count(Outcome::kSurpriseCapacity);
    r.surpriseBenign = outcomes.count(Outcome::kSurpriseBenign);
    r.phantoms = outcomes.count(Outcome::kPhantom);
    r.watchdogResets = nWatchdogResets;
    r.resolves = nResolves;
    r.icacheMisses = l1i->misses();
    r.dcacheMisses = nDataMisses.value();
    r.dataAccesses = nDataAccesses;
    r.btb1MissReports = pipe->missReportCount();
    r.predictionsMade = pipe->predictionCount();
    if (eng) {
        r.btb2RowReads = eng->rowReads();
        r.btb2Transfers = eng->hitsTransferred();
        r.btb2FullSearches = eng->fullSearchCount();
        r.btb2PartialSearches = eng->partialSearchCount();
    }
    return r;
}

SimResult
CoreModel::interimResult() const
{
    ZBP_ASSERT(runActive, "interimResult() without an armed run");
    return countersSoFar();
}

SimResult
CoreModel::finishRun()
{
    ZBP_ASSERT(runActive, "finishRun() without beginRun()");
    ZBP_ASSERT(decodeIdx >= tr->size(),
               "finishRun() before the trace was fully decoded");
    runActive = false;
    pipe->halt();

    if (smp)
        smp->finish(decodeIdx); // final partial interval + flush

    // Branches decoded near the end of the trace have resolve events
    // scheduled past the final cycle; the machine is done with them (no
    // further prediction can depend on their training), so they count
    // as resolved without replaying the training side effects.
    for (std::size_t i = 0; i < events.size(); ++i)
        if (events[i].kind != ResolveEvent::Kind::kRestart)
            ++nResolves;

    SimResult r = countersSoFar();

    if (const std::string err = simInvariantError(r); !err.empty())
        throw std::logic_error("simulation invariant violated (" +
                               r.traceName + "): " + err);

    if (!prm.collectStatsText)
        return r;

    // Full stats dump.
    stats::Group gh("hierarchy");
    bp->registerStats(gh);
    stats::Group gp("searchPipeline");
    pipe->registerStats(gp);
    stats::Group gi("icache");
    l1i->registerStats(gi);
    stats::Group gd("dcache");
    if (prm.dcacheEnabled) {
        gd.addDerived(
                "hits",
                [this] {
                    return static_cast<double>(nDataAccesses -
                                               nDataMisses.value());
                },
                "D-cache line hits");
        gd.add("misses", nDataMisses, "D-cache line misses");
    }
    stats::Group gs("sot");
    sotTable->registerStats(gs);
    stats::Group go("outcomes");
    outcomes.registerStats(go);
    std::string text;
    gh.dump(text);
    gp.dump(text);
    gi.dump(text);
    gd.dump(text);
    gs.dump(text);
    go.dump(text);
    if (eng) {
        stats::Group ge("btb2Engine");
        eng->registerStats(ge);
        ge.dump(text);
    }
    r.statsText = std::move(text);
    return r;
}

void
CoreModel::saveState(ckpt::Writer &w) const
{
    state(*this, w);
}

void
CoreModel::restoreState(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
CoreModel::state(Self &s, Io &io)
{
    ZBP_ASSERT(s.runActive, "checkpoint without an armed run");
    io.beginSection(ckpt::tag::kCore);
    io.expect(ckpt::nameHash(s.tr->name()), "trace fingerprint");
    io.expect(static_cast<std::uint64_t>(s.tr->size()), "trace length");
    io.expect(s.prm.dcacheEnabled, "D-cache presence");
    io.expect(s.eng != nullptr, "BTB2 engine presence");
    const std::size_t len = s.tr->size();
    io.u64(s.fetchIdx);
    io.u64(s.decodeIdx);
    io.check(s.fetchIdx <= len && s.decodeIdx <= len,
             "cursor beyond trace end");
    io.list32(s.fetchBuf, [&io, len](auto &fi) {
        io.u64(fi.idx);
        io.u64(fi.ready);
        io.check(fi.idx < len, "fetch buffer index beyond trace end");
    });
    io.enum8(s.fetchStall, FetchStall::kWaitResume, "fetch stall state");
    io.u64(s.fetchResumeAt);
    io.u64(s.fetchBlockedUntil);
    io.u64(s.lastFetchLine);
    io.u64(s.fetchSeqCursor);
    io.u64(s.decodeBlockedUntil);
    io.u64(s.lastRestartCycle);
    io.list32(s.events, [&io](auto &ev) {
        io.u64(ev.at);
        io.enum8(ev.kind, ResolveEvent::Kind::kRestart, "resolve event kind");
        core::Prediction::state(ev.pred, io);
        io.u64(ev.ia);
        io.enum8(ev.ikind, trace::InstKind::kIndirect, "instruction kind");
        io.flag(ev.taken);
        io.u64(ev.target);
        io.u64(ev.restartAddr);
    });
    io.u64(s.nTaken);
    io.u64(s.nBranches);
    io.u64(s.nDataAccesses);
    io.counter(s.nDataMisses);
    io.u64(s.nWatchdogResets);
    io.u64(s.nResolves);
    io.u64(s.cycle);
    io.u64(s.maxCycles);
    io.u64(s.lastProgressAt);
    io.u64(s.lastDecodeIdx);
    io.u64(s.cancelPoll);
    io.u64(s.curNextIa);
    io.endSection();
    io.part(*s.bp);
    io.part(*s.l1i);
    io.part(*s.sotTable);
    if (s.eng)
        io.part(*s.eng);
    io.part(*s.pipe);
    io.part(s.outcomes);
}

} // namespace zbp::cpu
