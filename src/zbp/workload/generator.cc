#include "zbp/workload/generator.hh"

#include <vector>

#include "zbp/common/log.hh"
#include "zbp/common/rng.hh"

namespace zbp::workload
{

namespace
{

/** One call-stack frame of the walker. */
struct Frame
{
    std::uint32_t funcIdx;
    std::uint32_t block;
    Addr returnTo;
};

/** The walker: executes the program, emitting instructions. */
class Walker
{
  public:
    Walker(const Program &prog_, const GenParams &gp_, trace::Trace &out_)
        : prog(prog_), gp(gp_), out(out_), rng(gp_.seed)
    {
        ZBP_ASSERT(!prog.functions.empty(), "empty program");
        const auto f = static_cast<std::uint32_t>(prog.functions.size());
        std::uint32_t num_roots = gp.numRoots == 0 ? f : gp.numRoots;
        if (num_roots > f)
            num_roots = f;
        roots.reserve(num_roots);
        for (std::uint32_t i = 0; i < num_roots; ++i)
            roots.push_back(i * f / num_roots);
        // One state slot per block, at firstSlot[func] + block.
        std::size_t slots = 0;
        for (const Function &fn : prog.functions) {
            firstSlot.push_back(slots);
            slots += fn.blocks.size();
        }
        siteState.assign(slots, 0);
    }

    void
    run()
    {
        out.reserve(gp.length + 64);
        while (out.size() < gp.length) {
            dispatchOnce();
        }
    }

  private:
    void
    emit(Addr ia, std::uint8_t len, trace::InstKind kind, bool taken,
         Addr target)
    {
        trace::Instruction inst;
        inst.ia = ia;
        inst.length = len;
        inst.kind = kind;
        inst.taken = taken;
        if (taken)
            inst.setTarget(target);
        out.push(inst);
    }

    void
    emitPlain(Addr ia, std::uint8_t len)
    {
        trace::Instruction inst;
        inst.ia = ia;
        inst.length = len;
        if (gp.dataAccessFraction > 0.0 &&
            rng.chance(gp.dataAccessFraction)) {
            inst.setDataAddr(drawDataAddr());
        }
        out.push(inst);
    }

    /** Synthesize an operand address: mostly frame-local, often in the
     * transaction root's private region, sometimes in the shared pool
     * (the classic OLTP mix: locals, session state, shared tables). */
    Addr
    drawDataAddr()
    {
        const auto kind = rng.below(100);
        if (kind < 45) {
            // Current stack frame (depth tracked by the walker).
            return gp.stackBase - Addr{curDepth} * 256 +
                   rng.below(192 / 8) * 8;
        }
        const Addr region = gp.heapBase +
                Addr{curRoot} * gp.heapRegionBytes;
        if (kind < 75) {
            // Hot head of the transaction's private region (~2 KB).
            return region + rng.below(2048 / 8) * 8;
        }
        if (kind < 83) {
            // Cold spread over the whole private region.
            return region + rng.below(gp.heapRegionBytes / 8) * 8;
        }
        const Addr shared = gp.heapBase + (Addr{1} << 44);
        if (kind < 95) {
            // Hot shared state (~4 KB: latches, counters, root pages).
            return shared + rng.below(4096 / 8) * 8;
        }
        return shared + rng.below(gp.sharedHeapBytes / 8) * 8;
    }

    std::uint32_t
    pickRoot()
    {
        const auto n = static_cast<std::uint32_t>(roots.size());
        std::uint32_t hot = std::min(gp.hotRoots, n);
        if (hot == 0)
            hot = 1;
        std::uint64_t start = 0;
        if (gp.phaseLength != 0) {
            const std::uint64_t phase = out.size() / gp.phaseLength;
            start = (phase * gp.phaseStride) % n;
        }
        const auto pick = rng.zipfish(hot, gp.rootSkew);
        return roots[(start + pick) % n];
    }

    /** Run the dispatcher loop body once: call one transaction root. */
    void
    dispatchOnce()
    {
        const Addr d = gp.dispatcherBase;
        emitPlain(d, 4);
        const std::uint32_t root = pickRoot();
        const Addr root_entry = prog.functions[root].entry();
        emit(d + 4, 4, trace::InstKind::kCall, true, root_entry);
        txnStart = out.size();
        curRoot = root;
        walkFunction(root, /*return_to=*/d + 8);
        if (out.size() >= gp.length)
            return;
        emitPlain(d + 8, 4);
        emit(d + 12, 4, trace::InstKind::kUncondBranch, true, d);
    }

    /** Execute @p func to completion (or budget exhaustion). */
    void
    walkFunction(std::uint32_t func, Addr return_to)
    {
        std::vector<Frame> stack;
        stack.push_back({func, 0, return_to});

        while (!stack.empty() && out.size() < gp.length) {
            curDepth = static_cast<std::uint32_t>(stack.size());
            Frame &fr = stack.back();
            const Function &fn = prog.functions[fr.funcIdx];
            const BasicBlock &bb = fn.blocks[fr.block];

            // Straight-line body.
            Addr ia = bb.start;
            for (std::size_t i = 0; i + 1 < bb.lengths.size(); ++i) {
                emitPlain(ia, bb.lengths[i]);
                ia += bb.lengths[i];
            }

            const std::uint8_t tlen = bb.lengths.back();
            const Terminator &t = bb.term;
            ZBP_ASSERT(ia == bb.termIa(), "layout mismatch");

            switch (t.kind) {
              case trace::InstKind::kNonBranch:
                // Fallthrough block: terminator slot is a plain inst.
                emitPlain(ia, tlen);
                fr.block += 1;
                break;

              case trace::InstKind::kCondBranch: {
                const bool taken = decideConditional(
                        siteState[firstSlot[fr.funcIdx] + fr.block], t);
                const Addr tgt = fn.blocks[t.target].start;
                emit(ia, tlen, t.kind, taken, tgt);
                fr.block = taken ? t.target : fr.block + 1;
                break;
              }

              case trace::InstKind::kUncondBranch: {
                const Addr tgt = fn.blocks[t.target].start;
                emit(ia, tlen, t.kind, true, tgt);
                fr.block = t.target;
                break;
              }

              case trace::InstKind::kIndirect: {
                const auto pick = rng.zipfish(t.targets.size(), 1.0);
                const std::uint32_t tb = t.targets[pick];
                emit(ia, tlen, t.kind, true, fn.blocks[tb].start);
                fr.block = tb;
                break;
              }

              case trace::InstKind::kCall: {
                const std::uint32_t callee = t.target;
                ZBP_ASSERT(callee > fr.funcIdx &&
                           callee < prog.functions.size(),
                           "call DAG violated");
                // Bound transaction size: deep in the stack, or once
                // the transaction budget is spent, the call site
                // degenerates to a taken branch to its fallthrough
                // (think devirtualized/guarded call) so the walk winds
                // down instead of exploding.
                if (stack.size() >= gp.maxCallDepth ||
                    out.size() - txnStart >= gp.maxTransactionInsts) {
                    emit(ia, tlen, t.kind, true, ia + tlen);
                    fr.block += 1;
                    break;
                }
                const Addr callee_entry =
                        prog.functions[callee].entry();
                emit(ia, tlen, t.kind, true, callee_entry);
                // Caller resumes at the next block.
                fr.block += 1;
                stack.push_back({callee, 0, ia + tlen});
                break;
              }

              case trace::InstKind::kReturn: {
                emit(ia, tlen, t.kind, true, fr.returnTo);
                stack.pop_back();
                break;
              }
            }
        }
    }

    /** @p state is the site's slot: executions so far for a periodic
     * branch, iterations left (0: not in the loop) for a loop branch. */
    bool
    decideConditional(std::uint32_t &state, const Terminator &t)
    {
        switch (t.cond) {
          case CondBehavior::kBiased:
            return rng.chance(t.takenProb);
          case CondBehavior::kPeriodic:
            return (state++ % t.period) != 0;
          case CondBehavior::kLoop:
            if (state == 0)
                state = t.loopTrip;
            state -= 1;
            return state > 0;
        }
        panic("unreachable conditional behaviour");
    }

    const Program &prog;
    const GenParams &gp;
    trace::Trace &out;
    Rng rng;
    std::uint64_t txnStart = 0;
    std::uint32_t curRoot = 0;
    std::uint32_t curDepth = 0;
    std::vector<std::uint32_t> roots;
    std::vector<std::size_t> firstSlot; ///< per function
    std::vector<std::uint32_t> siteState; ///< see decideConditional
};

} // namespace

trace::Trace
generateTrace(const Program &prog, const GenParams &gp,
              const std::string &name)
{
    trace::Trace t(name);
    Walker walker(prog, gp, t);
    walker.run();
    return t;
}

} // namespace zbp::workload
