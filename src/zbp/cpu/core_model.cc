#include "zbp/cpu/core_model.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

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
    if (prm.dcacheEnabled)
        l1d = std::make_unique<cache::ICache>(prm.dcache);
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
    if (prm.faults.enabled) {
        inj = std::make_unique<fault::FaultInjector>(prm.faults);
        bp->btb1().attachFaultInjector(*inj, fault::Site::kBtb1);
        bp->btbp().attachFaultInjector(*inj, fault::Site::kBtbp);
        // The CMP-shared BTB2 and arbiter are wired by their owner
        // (sim::CmpModel) into its own injector, not per core.
        if (bp->ownsBtb2())
            bp->btb2().attachFaultInjector(*inj, fault::Site::kBtb2);
        bp->pht().attachFaultInjector(*inj);
        bp->ctb().attachFaultInjector(*inj);
        sotTable->attachFaultInjector(*inj);
        if (eng)
            eng->attachFaultInjector(*inj);
    }
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
    smp->addProbe("faultsInjected",
                  [this] { return inj ? inj->injected() : 0; });
}

void
CoreModel::attachTracer(obs::TraceWriter *t)
{
    tracer = t;
    injTraced = false;
    if (t == nullptr) {
        if (eng)
            eng->setTracer(nullptr, 0);
        if (inj)
            inj->setTracer(nullptr, 0);
        return;
    }
    const std::string core_tag = "core" + std::to_string(sharedCoreId);
    if (eng)
        eng->setTracer(t, t->newLane(obs::TraceWriter::kPidUarch,
                                     core_tag + " preload"));
    if (inj) {
        inj->setTracer(t, t->newLane(obs::TraceWriter::kPidUarch,
                                     core_tag + " faults"));
        injTraced = true;
    }
}

void
CoreModel::startRun(const trace::Trace &t)
{
    tr = &t;
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
    nWatchdogResets = 0;
    nResolves = 0;
    fetchSeqCursor = 0;
    lastRestartCycle = 0;
    if (inj)
        inj->reset();
}

void
CoreModel::scheduleRestart(Addr addr, Cycle at)
{
    ResolveEvent ev;
    ev.at = at;
    ev.kind = ResolveEvent::Kind::kRestart;
    ev.restartAddr = addr;
    events.push_back(ev);
}

void
CoreModel::processEvents(Cycle now)
{
    while (!events.empty() && events.front().at <= now) {
        // Dispatch from a reference and pop afterwards: none of the
        // handlers below enqueues events, so the slot cannot be
        // reused/moved underneath us, and skipping the ~200-byte copy
        // matters on this per-resolve path.
        const ResolveEvent &ev = events.front();
        switch (ev.kind) {
          case ResolveEvent::Kind::kPredicted:
            bp->resolvePredicted(ev.pred, ev.ikind, ev.taken, ev.target,
                                 ev.at);
            ++nResolves;
            break;
          case ResolveEvent::Kind::kSurprise:
            bp->resolveSurprise(ev.ia, ev.ikind, ev.taken, ev.target,
                                ev.at);
            ++nResolves;
            break;
          case ResolveEvent::Kind::kRestart:
            pipe->restart(ev.restartAddr, ev.at);
            bp->restartSpeculation();
            lastRestartCycle = ev.at;
            break;
        }
        events.pop_front();
    }
}

void
CoreModel::fetchTick(Cycle now)
{
    const auto &t = *tr;
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
            if (p->taken && p->target == br.target) {
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
    const std::uint32_t line_bytes = prm.icache.lineBytes;

    while (budget > 0 && fetchIdx < t.size() &&
           fetchBuf.size() < prm.cpu.fetchBufferInsts) {
        const auto &inst = t[fetchIdx];
        if (inst.length > budget)
            break;

        // Instruction cache: touch the line(s) the instruction spans.
        const Addr first_line = alignDown(inst.ia, line_bytes);
        const Addr last_line =
                alignDown(inst.ia + inst.length - 1, line_bytes);
        for (Addr line = first_line; line <= last_line;
             line += line_bytes) {
            if (line == lastFetchLine)
                continue;
            lastFetchLine = line;
            if (!l1i->access(line, now)) {
                if (eng)
                    eng->noteICacheMiss(line, now);
                // Single core: infinite L2, fixed latency (paper §4).
                // CMP with a shared L2I: the fill latency depends on
                // whether a sibling already pulled the line in.
                const std::uint32_t lat = sharedL2i != nullptr
                        ? sharedL2i->fetchMiss(sharedCoreId, line, now,
                                               prm.icache.missLatency)
                        : prm.icache.missLatency;
                fetchBlockedUntil = now + lat;
                return; // retry this instruction after the fill
            }
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
                p->target == inst.target) {
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
                if (bp_->taken && bp_->target == inst.target) {
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

const core::Prediction *
CoreModel::nextFetchPred() const
{
    // The queue holds consecutive sequence numbers (one producer,
    // front-only pops), so the first entry past the cursor sits at a
    // directly computable index instead of needing a scan.
    const auto &q = pipe->queue();
    if (q.empty())
        return nullptr;
    const std::uint64_t front_seq = q.front().seq;
    const std::size_t i = front_seq > fetchSeqCursor
            ? 0
            : static_cast<std::size_t>(fetchSeqCursor - front_seq + 1);
    if (i >= q.size())
        return nullptr;
    return &q[i];
}

const core::Prediction *
CoreModel::findFetchPredFor(Addr ia) const
{
    // Predictions can be emitted behind fetch (the search catching up
    // after a restart); skip such stragglers and take the first
    // unconsumed prediction for this branch address.
    const auto &q = pipe->queue();
    if (q.empty())
        return nullptr;
    const std::uint64_t front_seq = q.front().seq;
    std::size_t i = front_seq > fetchSeqCursor
            ? 0
            : static_cast<std::size_t>(fetchSeqCursor - front_seq + 1);
    for (; i < q.size(); ++i)
        if (q[i].ia == ia)
            return &q[i];
    return nullptr;
}

void
CoreModel::decodeTick(Cycle now)
{
    if (now < decodeBlockedUntil)
        return;
    const auto &t = *tr;
    for (unsigned w = 0; w < prm.cpu.decodeWidth; ++w) {
        if (decodeIdx >= t.size())
            return;
        if (fetchBuf.empty())
            return;
        const FetchedInst &f = fetchBuf.front();
        ZBP_ASSERT(f.idx == decodeIdx, "fetch/decode desynchronized");
        if (f.ready > now)
            return;
        fetchBuf.pop_front();
        const auto &inst = t[decodeIdx];
        curNextIa = tidx ? tidx->nextIa(decodeIdx) : inst.nextIa();
        ++decodeIdx;
        decodeOne(inst, now);
        if (inst.dataAddr != kNoAddr && l1d) {
            // Finite L1 D-cache (Table 5: 96 KB, 6-way): an operand
            // miss stalls the in-order consume for the L2 latency.
            // Identical across configurations, so CPI differences stay
            // branch-driven — which is what lets the fused path charge
            // the stall from a per-trace precomputed outcome map.
            ++nDataAccesses;
            bool hit;
            if (dmiss != nullptr) {
                hit = (*dmiss)[decodeIdx - 1] == 0;
                l1d->recordPrecomputed(hit);
            } else {
                hit = l1d->access(inst.dataAddr, now);
            }
            if (!hit) {
                const Cycle until = now + prm.dcache.missLatency +
                                    prm.cpu.dcacheMissExtra;
                if (until > decodeBlockedUntil)
                    decodeBlockedUntil = until;
            }
        } else if (prm.cpu.dataStallProb > 0.0) {
            // Fallback for traces without operand addresses:
            // deterministic background stall.
            std::uint64_t h = inst.ia * 0x9E3779B97F4A7C15ull +
                              decodeIdx * 0xBF58476D1CE4E5B9ull;
            h ^= h >> 29;
            const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
            if (u < prm.cpu.dataStallProb) {
                const Cycle until = now + prm.cpu.dataStallCycles;
                if (until > decodeBlockedUntil)
                    decodeBlockedUntil = until;
            }
        }
        if (now < decodeBlockedUntil)
            return; // a restart stopped this decode group
    }
}

void
CoreModel::decodeOne(const trace::Instruction &inst, Cycle now)
{
    // Completion-time pattern tracking for the Sector Order Table
    // (approximated at decode; the model retires in order).  The packed
    // overload is bit-identical; the sidecar only skips the id math.
    if (tidx != nullptr)
        sotTable->instructionCompletedPacked(tidx->blockSector(decodeIdx - 1));
    else
        sotTable->instructionCompleted(inst.ia);

    // Pop predictions that land inside this instruction.
    auto &q = pipe->queue();
    const core::Prediction *mine = nullptr;
    core::Prediction mine_copy;
    while (!q.empty()) {
        const core::Prediction &p = q.front();
        // Predictions arrive in path order, so a front entry at or past
        // the end of this instruction belongs to a later instruction; a
        // front entry *before* this instruction is stale (an aliasing
        // phantom that fell inside another instruction's bytes).
        if (p.ia >= inst.ia + inst.length)
            break;
        if (p.ia == inst.ia && inst.branch()) {
            mine_copy = p;
            mine = &mine_copy;
            q.pop_front();
            break;
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
            pipe->restart(curNextIa, now);
            bp->restartSpeculation();
            lastRestartCycle = now;
            redirectFetchAfter(now + 1);
            decodeBlockedUntil = now + 1;
            return;
        }
    }

    if (!inst.branch())
        return;

    ++nBranches;
    if (inst.taken)
        ++nTaken;

    if (mine != nullptr)
        handlePredictedBranch(inst, *mine, now);
    else
        handleSurpriseBranch(inst, now);
}

void
CoreModel::handlePredictedBranch(const trace::Instruction &inst,
                                 const core::Prediction &p, Cycle now)
{
    (void)outcomes.seenBefore(inst.ia);
    const Cycle resolve_at = now + prm.cpu.decodeToResolve;

    // Schedule resolve-time training for the prediction either way.
    ResolveEvent ev;
    ev.at = resolve_at;
    ev.kind = ResolveEvent::Kind::kPredicted;
    ev.pred = p;
    ev.ikind = inst.kind;
    ev.taken = inst.taken;
    ev.target = inst.taken ? inst.target : kNoAddr;
    events.push_back(ev);
    // The hashes were frozen at prediction time; hint the PHT/CTB rows
    // they address so resolve-time training (decodeToResolve cycles of
    // sim time, but soon in wall time) finds the lines resident.
    bp->prefetchDirTables(p.hist);

    if (p.availableAt > now) {
        // The prediction exists but broadcast too late: the branch is
        // handled as a surprise (paper: "prediction falling behind
        // decode" — a latency miss).
        const bool guess = bp->surpriseBht().guessTaken(inst.ia, inst.kind);
        const bool bad = guess || inst.taken;
        outcomes.record(bad ? Outcome::kSurpriseLatency
                            : Outcome::kSurpriseBenign);
        applySurpriseTiming(inst, guess, now);
        // The search pipeline committed to the (late) prediction's
        // path; if that disagrees with reality it needs a restart even
        // when the surprise handling itself didn't schedule one.
        if (!inst.taken && p.taken)
            scheduleRestart(curNextIa, resolve_at);
        return;
    }

    const bool dir_ok = p.taken == inst.taken;
    const bool tgt_ok = !inst.taken || !p.taken || p.target == inst.target;

    if (dir_ok && tgt_ok) {
        outcomes.record(Outcome::kCorrect);
        return;
    }

    outcomes.record(dir_ok ? Outcome::kMispredictTarget
                           : Outcome::kMispredictDir);

    // Resolve-time restart: decode drains, fetch and search resume on
    // the corrected path after the restart penalty.
    decodeBlockedUntil = resolve_at + prm.cpu.restartPenalty;
    scheduleRestart(curNextIa, resolve_at);
    redirectFetchAfter(resolve_at + 1);
}

Outcome
CoreModel::classifySurprise(const trace::Instruction &inst,
                            bool late_prediction, Cycle now)
{
    const bool seen = outcomes.seenBefore(inst.ia);
    if (!seen)
        return Outcome::kSurpriseCompulsory;
    if (late_prediction)
        return Outcome::kSurpriseLatency;
    // "Latency" covers predictions falling behind decode and surprise
    // installs whose table write had not landed yet (paper §5.1).  The
    // search falls behind right after a restart; an entry that is
    // present but unpredicted outside that window is a capacity miss
    // the content-movement machinery failed to serve in time.
    if (auto t = bp->lastInstall(inst.ia)) {
        if (now - *t <= prm.cpu.installLatencyWindow)
            return Outcome::kSurpriseLatency;
    }
    const bool present =
            bp->btb1().lookup(inst.ia).has_value() ||
            bp->btbp().lookup(inst.ia).has_value();
    if (present && now - lastRestartCycle <= prm.cpu.installLatencyWindow)
        return Outcome::kSurpriseLatency;
    return Outcome::kSurpriseCapacity;
}

void
CoreModel::handleSurpriseBranch(const trace::Instruction &inst, Cycle now)
{
    const bool guess = bp->surpriseBht().guessTaken(inst.ia, inst.kind);
    const bool bad = guess || inst.taken;
    outcomes.record(bad ? classifySurprise(inst, false, now)
                        : Outcome::kSurpriseBenign);

    if (prm.decodeTimeMissReports && eng)
        eng->noteBtb1Miss(inst.ia, now);

    const Cycle resolve_at = now + prm.cpu.decodeToResolve;
    ResolveEvent ev;
    ev.at = resolve_at;
    ev.kind = ResolveEvent::Kind::kSurprise;
    ev.ia = inst.ia;
    ev.ikind = inst.kind;
    ev.taken = inst.taken;
    ev.target = inst.taken ? inst.target : kNoAddr;
    events.push_back(ev);

    applySurpriseTiming(inst, guess, now);
}

void
CoreModel::applySurpriseTiming(const trace::Instruction &inst, bool guess,
                               Cycle now)
{
    const Cycle resolve_at = now + prm.cpu.decodeToResolve;
    const bool direct = inst.kind == trace::InstKind::kCondBranch ||
                        inst.kind == trace::InstKind::kUncondBranch ||
                        inst.kind == trace::InstKind::kCall;

    if (guess && direct) {
        if (inst.taken) {
            // Decode-time redirect: the statically guessed target of a
            // direct branch is the real target.  Fetch resumes next
            // cycle; the bubble is the fetch-to-decode refill.
            pipe->restart(inst.target, now);
            bp->restartSpeculation();
            lastRestartCycle = now;
            redirectFetchAfter(now + 1);
            return;
        }
        // Guessed taken but falls through: the decode-time redirect
        // went down the (wrong) taken path; resolve brings it back.
        decodeBlockedUntil = resolve_at + prm.cpu.restartPenalty;
        scheduleRestart(curNextIa, resolve_at);
        redirectFetchAfter(resolve_at + 1);
        return;
    }

    if (guess) {
        // Indirect or return: the target is only known at resolve.
        if (inst.taken) {
            decodeBlockedUntil = resolve_at + 1;
            scheduleRestart(inst.target, resolve_at);
        } else {
            decodeBlockedUntil = resolve_at + prm.cpu.restartPenalty;
            scheduleRestart(curNextIa, resolve_at);
        }
        redirectFetchAfter(resolve_at + 1);
        return;
    }

    // Guessed not-taken.
    if (!inst.taken)
        return; // truly benign: sequential flow was correct

    // Resolved taken: full restart.
    decodeBlockedUntil = resolve_at + prm.cpu.restartPenalty;
    scheduleRestart(inst.target, resolve_at);
    redirectFetchAfter(resolve_at + 1);
}

void
CoreModel::redirectFetchAfter(Cycle resume_at)
{
    // The instructions already fetched past the current decode point
    // were (conceptually) squashed by a redirect; refetch them when the
    // pipeline restarts.
    fetchBuf.clear();
    fetchIdx = decodeIdx;
    fetchStall = FetchStall::kWaitResume;
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
    if (inj)
        w = std::min(w, inj->nextTargetedAt());

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
    if (tidx != nullptr && tidx->size() != t.size())
        throw std::invalid_argument(
                "attached TraceIndex does not match the trace (" +
                std::to_string(tidx->size()) + " vs " +
                std::to_string(t.size()) + " instructions)");
    if (dmiss != nullptr && dmiss->size() != t.size())
        throw std::invalid_argument(
                "attached data-miss map does not match the trace (" +
                std::to_string(dmiss->size()) + " vs " +
                std::to_string(t.size()) + " instructions)");
    ZBP_ASSERT(!runActive, "beginRun() while a run is active");
    startRun(t);

    pipe->restart(t[0].ia, 0);
    bp->restartSpeculation();

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
    const trace::Trace &t = *tr;
    const Cycle max_cycles = maxCycles;
    const std::size_t target = std::min(decode_target, t.size());
    // This is the run loop of run(), cut at decode boundaries: all loop
    // state is member state, and the exit condition is the only thing a
    // smaller target changes, so any monotone sequence of targets
    // replays the exact cycle-by-cycle history of a single full run.
    while (decodeIdx < target) {
        if (cancel != nullptr && ((++cancelPoll & 0xFFF) == 0) &&
            cancel->load(std::memory_order_relaxed)) {
            throw SimCancelled("simulation cancelled at cycle " +
                               std::to_string(cycle) + " (" +
                               std::to_string(decodeIdx) + " of " +
                               std::to_string(t.size()) +
                               " instructions decoded)");
        }
        // Components whose tick is a strict no-op before their wake-up
        // cycle are gated here instead of paying the call: the guards
        // are the same conditions the ticks re-check internally.
        if (injTraced)
            inj->noteCycle(cycle); // timestamps rate-driven fault instants
        if (inj && inj->nextTargetedAt() <= cycle)
            inj->tick(cycle);
        if (!events.empty() && events.front().at <= cycle)
            processEvents(cycle);
        if (pipe->nextEventAt() <= cycle)
            pipe->tick(cycle);
        if (eng && eng->nextEventAt() <= cycle)
            eng->tick(cycle);
        fetchTick(cycle);
        decodeTick(cycle);
        if (smp != nullptr && decodeIdx >= smp->nextAt())
            smp->sample(decodeIdx);
        if (decodeIdx != lastDecodeIdx) {
            lastDecodeIdx = decodeIdx;
            lastProgressAt = cycle;
        } else if (cycle - lastProgressAt > kWatchdogCycles) {
            // Pathological livelock (possible under heavy tag aliasing:
            // phantom-prediction storms whose queue entries never align
            // with decoded instructions).  Real machines recover from
            // bogus-branch corner cases with a full pipeline reset;
            // model the same and charge a restart penalty.
            pipe->restart(t[decodeIdx].ia, cycle);
            bp->restartSpeculation();
            fetchBuf.clear();
            fetchIdx = decodeIdx;
            fetchStall = FetchStall::kNone;
            fetchResumeAt = kNoCycle;
            lastFetchLine = kNoAddr;
            decodeBlockedUntil = cycle + prm.cpu.restartPenalty;
            ++nWatchdogResets;
            lastProgressAt = cycle;
        }
        ++cycle;
        // Idle-skip: jump over cycles in which no component can act.
        // All state transitions happen at computed wake-up cycles, so
        // this is observationally equivalent to per-cycle ticking (the
        // golden-counter tests pin this).  The final loop exit keeps
        // the per-cycle count: no skip once decode has finished.
        // Fast path: while fetch streams sequentially it can act every
        // cycle, so the wake-up is `cycle` itself — don't compute it.
        if (decodeIdx < t.size() &&
            !(fetchStall == FetchStall::kNone && fetchIdx < t.size() &&
              fetchBlockedUntil <= cycle &&
              fetchBuf.size() < prm.cpu.fetchBufferInsts))
            cycle = std::max(cycle,
                             nextWakeAt(cycle - 1, lastProgressAt));
        if (cycle > max_cycles) {
            std::fprintf(stderr, "cursor=%llu buf=%zu events=%zu "
                         "dBlocked=%llu fBlocked=%llu\n",
                         (unsigned long long)fetchSeqCursor,
                         fetchBuf.size(), events.size(),
                         (unsigned long long)decodeBlockedUntil,
                         (unsigned long long)fetchBlockedUntil);
            for (std::size_t i = 0; i < pipe->queue().size() && i < 8; ++i) {
                const auto &p = pipe->queue()[i];
                std::fprintf(stderr,
                             "q[%zu] seq=%llu ia=%llx taken=%d tgt=%llx "
                             "avail=%llu\n", i,
                             (unsigned long long)p.seq,
                             (unsigned long long)p.ia, p.taken,
                             (unsigned long long)p.target,
                             (unsigned long long)p.availableAt);
            }
            std::ostringstream msg;
            msg << "simulation wedged: cycle " << cycle << " decodeIdx "
                << decodeIdx << " of " << t.size() << " fetchIdx "
                << fetchIdx << " stall " << static_cast<int>(fetchStall)
                << " fetchResumeAt " << fetchResumeAt << " searchAddr "
                << pipe->searchAddress() << " active " << pipe->active();
            throw std::runtime_error(msg.str());
        }
    }
    return decodeIdx >= t.size();
}

void
CoreModel::functionalOne(const trace::Instruction &inst)
{
    // Mirrors decodeOne's state updates (SOT, prediction, training,
    // outcome books) with estimated instead of simulated timing.  The
    // cursor has NOT been advanced yet: decodeIdx is this instruction's
    // index (decodeOne sees decodeIdx - 1 after its increment).
    if (tidx != nullptr)
        sotTable->instructionCompletedPacked(tidx->blockSector(decodeIdx));
    else
        sotTable->instructionCompleted(inst.ia);
    curNextIa = tidx ? tidx->nextIa(decodeIdx) : inst.nextIa();

    // I-cache: touch the line(s) the instruction spans, charging the
    // fill latency as a straight-line estimate (no overlap modelling).
    const std::uint32_t line_bytes = prm.icache.lineBytes;
    const Addr first_line = alignDown(inst.ia, line_bytes);
    const Addr last_line = alignDown(inst.ia + inst.length - 1, line_bytes);
    for (Addr line = first_line; line <= last_line; line += line_bytes) {
        if (line == lastFetchLine)
            continue;
        lastFetchLine = line;
        if (!l1i->access(line, cycle))
            cycle += prm.icache.missLatency;
    }

    ++decodeIdx;

    if (inst.branch()) {
        ++nBranches;
        if (inst.taken)
            ++nTaken;
        const Addr actual_target = inst.taken ? inst.target : kNoAddr;
        const core::CandidateList cands = bp->searchFirstLevel(inst.ia);
        const core::Candidate *mine = nullptr;
        for (const core::Candidate &c : cands) {
            if (c.perceivedIa == inst.ia) {
                mine = &c;
                break;
            }
        }
        if (mine != nullptr) {
            // Predicted branch.  With no prediction-latency modelling a
            // first-level hit is never "late", so the surprise-latency
            // path of handlePredictedBranch cannot occur here — one of
            // the documented fast-mode approximations.
            (void)outcomes.seenBefore(inst.ia);
            const core::Prediction p = bp->makePrediction(*mine, 0);
            const bool dir_ok = p.taken == inst.taken;
            const bool tgt_ok =
                    !inst.taken || !p.taken || p.target == inst.target;
            outcomes.record(dir_ok && tgt_ok
                                    ? Outcome::kCorrect
                                    : (dir_ok ? Outcome::kMispredictTarget
                                              : Outcome::kMispredictDir));
            bp->resolvePredicted(p, inst.kind, inst.taken, actual_target,
                                 cycle);
            ++nResolves;
            if (!(dir_ok && tgt_ok)) {
                // makePrediction pushed the predicted direction onto the
                // speculative history; a correct prediction leaves it in
                // lockstep with the architectural push above, so only a
                // mispredict needs the restart resync — exactly when the
                // detailed model schedules one.
                bp->restartSpeculation();
                lastRestartCycle = cycle;
                cycle += prm.cpu.decodeToResolve + prm.cpu.restartPenalty;
            }
        } else {
            // Surprise branch: classify against the same books, then
            // compress the whole miss-report -> tracker -> bulk-transfer
            // flow into one immediate preload.
            const bool guess =
                    bp->surpriseBht().guessTaken(inst.ia, inst.kind);
            const bool bad = guess || inst.taken;
            outcomes.record(bad ? classifySurprise(inst, false, cycle)
                                : Outcome::kSurpriseBenign);
            // With no search pipeline running there is no fruitless-
            // search miss detection; a decode-time surprise is the
            // functional stand-in for a BTB1 miss report under either
            // miss definition, so the preload is not gated on
            // decodeTimeMissReports here.
            if (eng)
                eng->functionalPreload(inst.ia, cycle);
            bp->resolveSurprise(inst.ia, inst.kind, inst.taken,
                                actual_target, cycle);
            ++nResolves;
            if (bad) {
                bp->restartSpeculation();
                lastRestartCycle = cycle;
                const bool direct =
                        inst.kind == trace::InstKind::kCondBranch ||
                        inst.kind == trace::InstKind::kUncondBranch ||
                        inst.kind == trace::InstKind::kCall;
                if (guess && direct && inst.taken)
                    cycle += 2; // decode-time redirect: refill bubble
                else
                    cycle += prm.cpu.decodeToResolve +
                             prm.cpu.restartPenalty;
            }
        }
    }

    if (inst.dataAddr != kNoAddr && l1d) {
        ++nDataAccesses;
        bool hit;
        if (dmiss != nullptr) {
            hit = (*dmiss)[decodeIdx - 1] == 0;
            l1d->recordPrecomputed(hit);
        } else {
            hit = l1d->access(inst.dataAddr, cycle);
        }
        if (!hit)
            cycle += prm.dcache.missLatency + prm.cpu.dcacheMissExtra;
    } else if (prm.cpu.dataStallProb > 0.0) {
        std::uint64_t h = inst.ia * 0x9E3779B97F4A7C15ull +
                          decodeIdx * 0xBF58476D1CE4E5B9ull;
        h ^= h >> 29;
        const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
        if (u < prm.cpu.dataStallProb)
            cycle += prm.cpu.dataStallCycles;
    }

    // Decode bandwidth: one cycle per decodeWidth instructions.  Keyed
    // on the absolute cursor so chunked functional calls compose.
    if (decodeIdx % prm.cpu.decodeWidth == 0)
        ++cycle;
}

void
CoreModel::functionalResync()
{
    // Re-establish the drained-machine invariants a detailed advance()
    // (or saveState/restoreState round-trip) expects: empty fetch
    // buffer, empty event queue, fetch aligned with decode, and the
    // search pipeline restarted at the resume point.
    fetchBuf.clear();
    fetchIdx = decodeIdx;
    fetchStall = FetchStall::kNone;
    fetchResumeAt = kNoCycle;
    fetchBlockedUntil = cycle;
    decodeBlockedUntil = cycle;
    lastFetchLine = kNoAddr;
    lastProgressAt = cycle;
    lastDecodeIdx = decodeIdx;
    if (decodeIdx < tr->size()) {
        // The restart flushes the prediction queue; fetchSeqCursor only
        // ever holds consumed seqs, all below anything the pipeline
        // will emit next, so it needs no adjustment.
        pipe->restart((*tr)[decodeIdx].ia, cycle);
        bp->restartSpeculation();
        lastRestartCycle = cycle;
    }
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
    if (inj != nullptr)
        throw std::logic_error("advanceFunctional() does not support "
                               "fault injection (timing-driven)");
    const trace::Trace &t = *tr;
    const std::size_t target = std::min(decode_target, t.size());
    while (decodeIdx < target) {
        if (cancel != nullptr && ((++cancelPoll & 0xFFF) == 0) &&
            cancel->load(std::memory_order_relaxed)) {
            functionalResync();
            throw SimCancelled(
                    "simulation cancelled (functional) at instruction " +
                    std::to_string(decodeIdx) + " of " +
                    std::to_string(t.size()));
        }
        functionalOne(t[decodeIdx]);
    }
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
    r.faultsInjected = inj ? inj->injected() : 0;
    r.icacheMisses = l1i->misses();
    r.dcacheMisses = l1d ? l1d->misses() : 0;
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
    if (l1d)
        l1d->registerStats(gd);
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

namespace
{

std::uint64_t
traceNameHash(const std::string &name)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

void
savePrediction(ckpt::Writer &w, const core::Prediction &p)
{
    w.putU64(p.seq);
    w.putU64(p.ia);
    w.putBool(p.taken);
    w.putU64(p.target);
    w.putU64(p.availableAt);
    w.putU8(static_cast<std::uint8_t>(p.source));
    w.putBool(p.usedPht);
    w.putBool(p.usedCtb);
    w.putU64(p.hist.phtIndex);
    w.putU64(p.hist.phtTagHash);
    w.putU64(p.hist.ctbIndex);
}

core::Prediction
loadPrediction(ckpt::Reader &r)
{
    core::Prediction p;
    p.seq = r.getU64();
    p.ia = r.getU64();
    p.taken = r.getBool();
    p.target = r.getU64();
    p.availableAt = r.getU64();
    const std::uint8_t src = r.getU8();
    if (src > static_cast<std::uint8_t>(core::PredictionSource::kBtbp))
        throw ckpt::CkptError("prediction source out of range");
    p.source = static_cast<core::PredictionSource>(src);
    p.usedPht = r.getBool();
    p.usedCtb = r.getBool();
    p.hist.phtIndex = r.getU64();
    p.hist.phtTagHash = r.getU64();
    p.hist.ctbIndex = r.getU64();
    return p;
}

} // namespace

void
CoreModel::saveState(ckpt::Writer &w) const
{
    ZBP_ASSERT(runActive, "saveState() without an armed run");
    w.beginSection(ckpt::tag::kCore);
    w.putU64(traceNameHash(tr->name()));
    w.putU64(tr->size());
    w.putBool(l1d != nullptr);
    w.putBool(eng != nullptr);
    w.putBool(inj != nullptr);
    w.putU64(fetchIdx);
    w.putU64(decodeIdx);
    w.putU32(static_cast<std::uint32_t>(fetchBuf.size()));
    for (const FetchedInst &fi : fetchBuf) {
        w.putU64(fi.idx);
        w.putU64(fi.ready);
    }
    w.putU8(static_cast<std::uint8_t>(fetchStall));
    w.putU64(fetchResumeAt);
    w.putU64(fetchBlockedUntil);
    w.putU64(lastFetchLine);
    w.putU64(fetchSeqCursor);
    w.putU64(decodeBlockedUntil);
    w.putU64(lastRestartCycle);
    w.putU32(static_cast<std::uint32_t>(events.size()));
    for (const ResolveEvent &ev : events) {
        w.putU64(ev.at);
        w.putU8(static_cast<std::uint8_t>(ev.kind));
        savePrediction(w, ev.pred);
        w.putU64(ev.ia);
        w.putU8(static_cast<std::uint8_t>(ev.ikind));
        w.putBool(ev.taken);
        w.putU64(ev.target);
        w.putU64(ev.restartAddr);
    }
    w.putU64(nTaken);
    w.putU64(nBranches);
    w.putU64(nDataAccesses);
    w.putU64(nWatchdogResets);
    w.putU64(nResolves);
    w.putU64(cycle);
    w.putU64(maxCycles);
    w.putU64(lastProgressAt);
    w.putU64(lastDecodeIdx);
    w.putU64(cancelPoll);
    w.putU64(curNextIa);
    w.endSection();
    bp->saveState(w);
    l1i->saveState(w);
    if (l1d)
        l1d->saveState(w);
    sotTable->saveState(w);
    if (eng)
        eng->saveState(w);
    pipe->saveState(w);
    if (inj)
        inj->saveState(w);
    outcomes.saveState(w);
}

void
CoreModel::restoreState(ckpt::Reader &r)
{
    ZBP_ASSERT(runActive, "restoreState() without an armed run");
    r.openSection(ckpt::tag::kCore);
    if (r.getU64() != traceNameHash(tr->name()) ||
        r.getU64() != tr->size())
        throw ckpt::CkptError("checkpoint was taken over a different "
                              "trace");
    if (r.getBool() != (l1d != nullptr) ||
        r.getBool() != (eng != nullptr) ||
        r.getBool() != (inj != nullptr))
        throw ckpt::CkptError("checkpoint machine configuration "
                              "mismatch");
    const std::uint64_t fIdx = r.getU64();
    const std::uint64_t dIdx = r.getU64();
    if (fIdx > tr->size() || dIdx > tr->size())
        throw ckpt::CkptError("checkpoint cursor beyond trace end");
    const std::uint32_t nfb = r.getU32();
    std::vector<FetchedInst> fb(nfb);
    for (FetchedInst &fi : fb) {
        fi.idx = r.getU64();
        fi.ready = r.getU64();
        if (fi.idx >= tr->size())
            throw ckpt::CkptError("fetch buffer index beyond trace end");
    }
    const std::uint8_t fs = r.getU8();
    if (fs > static_cast<std::uint8_t>(FetchStall::kWaitResume))
        throw ckpt::CkptError("fetch stall state out of range");
    const Cycle fra = r.getU64();
    const Cycle fbu = r.getU64();
    const Addr lfl = r.getU64();
    const std::uint64_t fsc = r.getU64();
    const Cycle dbu = r.getU64();
    const Cycle lrc = r.getU64();
    const std::uint32_t nev = r.getU32();
    std::vector<ResolveEvent> evs(nev);
    for (ResolveEvent &ev : evs) {
        ev.at = r.getU64();
        const std::uint8_t k = r.getU8();
        if (k > static_cast<std::uint8_t>(ResolveEvent::Kind::kRestart))
            throw ckpt::CkptError("resolve event kind out of range");
        ev.kind = static_cast<ResolveEvent::Kind>(k);
        ev.pred = loadPrediction(r);
        ev.ia = r.getU64();
        const std::uint8_t ik = r.getU8();
        if (ik > static_cast<std::uint8_t>(trace::InstKind::kIndirect))
            throw ckpt::CkptError("instruction kind out of range");
        ev.ikind = static_cast<trace::InstKind>(ik);
        ev.taken = r.getBool();
        ev.target = r.getU64();
        ev.restartAddr = r.getU64();
    }
    const std::uint64_t taken = r.getU64();
    const std::uint64_t branches = r.getU64();
    const std::uint64_t dataAcc = r.getU64();
    const std::uint64_t wdResets = r.getU64();
    const std::uint64_t resolves = r.getU64();
    const Cycle cyc = r.getU64();
    const Cycle maxCyc = r.getU64();
    const Cycle progAt = r.getU64();
    const std::uint64_t lastDi = r.getU64();
    const std::uint64_t cpoll = r.getU64();
    const Addr cni = r.getU64();
    r.closeSection();

    fetchIdx = static_cast<std::size_t>(fIdx);
    decodeIdx = static_cast<std::size_t>(dIdx);
    fetchBuf.clear();
    for (const FetchedInst &fi : fb)
        fetchBuf.push_back(fi);
    fetchStall = static_cast<FetchStall>(fs);
    fetchResumeAt = fra;
    fetchBlockedUntil = fbu;
    lastFetchLine = lfl;
    fetchSeqCursor = fsc;
    decodeBlockedUntil = dbu;
    lastRestartCycle = lrc;
    events.clear();
    for (const ResolveEvent &ev : evs)
        events.push_back(ev);
    nTaken = taken;
    nBranches = branches;
    nDataAccesses = dataAcc;
    nWatchdogResets = wdResets;
    nResolves = resolves;
    cycle = cyc;
    maxCycles = maxCyc;
    lastProgressAt = progAt;
    lastDecodeIdx = static_cast<std::size_t>(lastDi);
    cancelPoll = cpoll;
    curNextIa = cni;

    bp->restoreState(r);
    l1i->restoreState(r);
    if (l1d)
        l1d->restoreState(r);
    sotTable->restoreState(r);
    if (eng)
        eng->restoreState(r);
    pipe->restoreState(r);
    if (inj)
        inj->restoreState(r);
    outcomes.restoreState(r);
}

} // namespace zbp::cpu
