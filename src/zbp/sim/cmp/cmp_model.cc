#include "zbp/sim/cmp/cmp_model.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "zbp/obs/trace_writer.hh"

namespace zbp::sim
{

namespace
{

/** Stable per-core fault seed: distinct cores must draw distinct
 * corruption streams from one configured seed (SplitMix64 finalizer —
 * the same mix the workload generators use). */
std::uint64_t
mixSeed(std::uint64_t seed, unsigned core)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (core + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

std::string
cmpMismatch(const CmpResult &a, const CmpResult &b)
{
    if (a.core.size() != b.core.size())
        return "cores: " + std::to_string(a.core.size()) +
               " != " + std::to_string(b.core.size());
    for (std::size_t i = 0; i < a.core.size(); ++i)
        if (std::string d = cpu::counterMismatch(a.core[i], b.core[i]);
            !d.empty())
            return "core " + std::to_string(i) + " " + d;
    for (const CmpCounter &c : kCmpCounters)
        if (a.*c.member != b.*c.member)
            return std::string(c.name) + ": " + std::to_string(a.*c.member) +
                   " != " + std::to_string(b.*c.member);
    for (const CmpCounterVector &c : kCmpCounterVectors)
        if (a.*c.member != b.*c.member)
            return std::string(c.name) + " differ";
    return {};
}

CmpModel::CmpModel(const core::MachineParams &p) : prm(p)
{
    prm.validate();
    const unsigned n = prm.cmp.cores;

    cpu::SharedCoreContext ctx;
    if (prm.btb2Enabled) {
        btb2 = std::make_unique<btb::SetAssocBtb>("btb2", prm.btb2);
        arb = std::make_unique<preload::Btb2Arbiter>(
                preload::Btb2ArbiterParams{n, prm.cmp.btb2Banks,
                                           prm.cmp.arbQueueDepth,
                                           prm.cmp.arbPolicy},
                prm.btb2.rowBytes);
        ctx.btb2 = btb2.get();
        ctx.arbiter = arb.get();
    }
    if (prm.cmp.sharedL2i) {
        l2i = std::make_unique<cache::SharedL2I>(prm.cmp.l2i, n);
        ctx.l2i = l2i.get();
    }

    // Shared structures get a CMP-owned injector so a shared-array
    // corruption happens once, not once per core; the cores' private
    // injectors draw per-core streams from mixed seeds.
    if (prm.faults.enabled) {
        inj = std::make_unique<fault::FaultInjector>(prm.faults);
        if (btb2)
            btb2->attachFaultInjector(*inj, fault::Site::kBtb2);
        if (arb)
            arb->attachFaultInjector(*inj);
    }

    cs.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        core::MachineParams cp = prm;
        if (n > 1)
            cp.faults.seed = mixSeed(prm.faults.seed, i);
        ctx.coreId = i;
        cs.push_back(std::make_unique<cpu::CoreModel>(cp, ctx));
    }
}

CmpModel::~CmpModel() = default;

void
CmpModel::attachObs(obs::IntervalWriter *w, std::uint64_t interval,
                    const std::string &config_name)
{
    for (auto &c : cs)
        c->attachObs(w, interval, config_name);
}

void
CmpModel::attachTracer(obs::TraceWriter *t)
{
    tracer = t;
    for (auto &c : cs)
        c->attachTracer(t);
    if (t == nullptr) {
        cmpLane = 0;
        injTraced = false;
        if (arb)
            arb->setTracer(nullptr, 0);
        if (inj)
            inj->setTracer(nullptr, 0);
        return;
    }
    cmpLane = t->newLane(obs::TraceWriter::kPidRunner, "cmp windows");
    if (arb)
        arb->setTracer(t, t->newLane(obs::TraceWriter::kPidUarch,
                                     "shared arbiter"));
    if (inj) {
        inj->setTracer(t, t->newLane(obs::TraceWriter::kPidUarch,
                                     "shared faults"));
        injTraced = true;
    }
}

void
CmpModel::beginRun(const std::vector<const trace::Trace *> &traces)
{
    ZBP_ASSERT(!runActive, "beginRun() while a CMP run is active");
    if (traces.size() != cs.size())
        throw std::invalid_argument(
                "CmpModel::beginRun: " + std::to_string(traces.size()) +
                " traces for " + std::to_string(cs.size()) + " cores");
    len.assign(cs.size(), 0);
    coreDone.assign(cs.size(), false);
    maxLen = 0;
    window = 0;
    rot = 0;
    if (inj)
        inj->reset();
    for (std::size_t i = 0; i < cs.size(); ++i) {
        if (traces[i] == nullptr)
            throw std::invalid_argument("CmpModel::beginRun: null trace");
        len[i] = traces[i]->size();
        maxLen = std::max(maxLen, len[i]);
        cs[i]->beginRun(*traces[i]);
    }
    runActive = true;
}

bool
CmpModel::advance(std::size_t decode_target)
{
    ZBP_ASSERT(runActive, "advance() without beginRun()");
    const std::size_t target = std::min(decode_target, maxLen);
    const unsigned n = cores();

    const std::size_t win0 = window;
    const double adv_ts = tracer != nullptr ? tracer->nowUs() : 0.0;
    // The shared injector has no cycle clock of its own (cores each run
    // their own); stamp its instants at window granularity — the same
    // resolution the sharing model itself has.
    if (injTraced)
        inj->noteCycle(static_cast<Cycle>(window));

    while (window < target) {
        // Windows land on absolute stepInsts boundaries (never on the
        // caller's target), so every monotone target sequence produces
        // the same window schedule — and therefore the same shared-
        // state access order — as one full-length advance().
        window = std::min(window + prm.cmp.stepInsts, maxLen);
        bool all_done = true;
        // Rotate which core steps first so no core is systematically
        // older than its siblings at the arbiter (with one core the
        // rotation is the identity — the N=1 equivalence depends on
        // nothing here but the advance() targets being monotone).
        for (unsigned k = 0; k < n; ++k) {
            const unsigned ci = (rot + k) % n;
            if (coreDone[ci])
                continue;
            coreDone[ci] = cs[ci]->advance(std::min(window, len[ci]));
            if (!coreDone[ci])
                all_done = false;
        }
        rot = (rot + 1) % n;
        if (injTraced)
            inj->noteCycle(static_cast<Cycle>(window));
        if (all_done)
            break;
    }

    if (tracer != nullptr && window > win0)
        tracer->span(obs::TraceWriter::kPidRunner, cmpLane, "cmp",
                     "cmp:window", adv_ts, tracer->nowUs() - adv_ts,
                     {{"from", obs::jsonNum(
                               static_cast<std::uint64_t>(win0))},
                      {"to", obs::jsonNum(
                               static_cast<std::uint64_t>(window))},
                      {"cores", obs::jsonNum(
                               static_cast<std::uint64_t>(n))}});

    for (unsigned ci = 0; ci < n; ++ci)
        if (!coreDone[ci])
            return false;
    return true;
}

CmpResult
CmpModel::finishRun()
{
    ZBP_ASSERT(runActive, "finishRun() without beginRun()");
    runActive = false;

    CmpResult r;
    r.core.reserve(cs.size());
    for (auto &c : cs)
        r.core.push_back(c->finishRun());

    if (arb) {
        r.arbRequests = arb->requests();
        r.arbGrants = arb->grants();
        r.arbConflicts = arb->conflicts();
        r.arbWaitCycles = arb->conflictWaitCycles();
        r.arbQueueFullRejects = arb->queueFullRejects();
        r.coreGrants = arb->coreGrants();
        r.coreWaitCycles = arb->coreWaitCycles();
        r.bankGrants = arb->bankGrants();
    }
    if (l2i) {
        r.l2iHits = l2i->hits();
        r.l2iMisses = l2i->misses();
        r.l2iCoreHits = l2i->coreHits();
        r.l2iCoreMisses = l2i->coreMisses();
    }
    r.faultsInjectedShared = inj ? inj->injected() : 0;
    return r;
}

CmpResult
CmpModel::run(const std::vector<const trace::Trace *> &traces)
{
    beginRun(traces);
    advance(maxLen);
    return finishRun();
}

void
CmpModel::saveState(ckpt::Writer &w) const
{
    state(*this, w);
}

void
CmpModel::restoreState(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
CmpModel::state(Self &s, Io &io)
{
    ZBP_ASSERT(s.runActive, "checkpoint without an armed CMP run");
    io.beginSection(ckpt::tag::kCmp);
    io.expect(s.cores(), "CMP core count");
    io.u64(s.window);
    io.expect(static_cast<std::uint64_t>(s.maxLen), "CMP trace length");
    io.u32(s.rot);
    io.check(s.rot < s.cores(), "rotation cursor out of range");
    for (std::size_t i = 0; i < s.cs.size(); ++i) {
        io.expect(static_cast<std::uint64_t>(s.len[i]),
                  "CMP per-core trace length");
        bool done = s.coreDone[i];
        io.flag(done);
        if constexpr (Io::kReading)
            s.coreDone[i] = done;
    }
    io.endSection();
    if (s.btb2)
        io.part(*s.btb2);
    if (s.arb)
        io.part(*s.arb);
    if (s.l2i)
        io.part(*s.l2i);
    if (s.inj)
        io.part(*s.inj);
    for (auto &c : s.cs)
        io.part(*c);
}

} // namespace zbp::sim
