#include "zbp/core/search_pipeline.hh"

namespace zbp::core
{

SearchPipeline::SearchPipeline(const SearchParams &p,
                               BranchPredictorHierarchy &bp_,
                               preload::MissSink *miss_sink)
    : prm(p), bp(bp_), sink(miss_sink),
      // The tick() queue-full check bounds the occupancy at
      // maxQueuedPredictions plus one row's worth of broadcasts, so
      // the ring never grows in steady state.
      preds(p.maxQueuedPredictions + btb::kMaxBtbWays)
{
    ZBP_ASSERT(prm.missSearchLimit >= 1, "missSearchLimit must be >= 1");
    ZBP_ASSERT(prm.seqBurst >= 1, "seqBurst must be >= 1");
}

void
SearchPipeline::restart(Addr addr, Cycle now)
{
    preds.clear();
    searching = true;
    searchAddr = addr;
    nextSearchAt = now;
    seqBurstCount = 0;
    fruitlessRun = 0;
    runStartAddr = addr;
}

void
SearchPipeline::halt()
{
    searching = false;
    preds.clear();
}

void
SearchPipeline::tick(Cycle now)
{
    if (!searching || now < nextSearchAt)
        return;
    if (preds.size() >= prm.maxQueuedPredictions) {
        ++nQueueFull;
        return; // retry next cycle; the lookahead is capped
    }
    doSearch(now);
    // doSearch just froze the next search address (re-index, sequential
    // advance, or continue-past-row); hint those rows now so the next
    // probe's key planes are resident when it issues.
    bp.prefetchFirstLevel(searchAddr);
}

void
SearchPipeline::doSearch(Cycle now)
{
    ++nSearches;
    const Addr issue_addr = searchAddr;
    const auto cands = bp.searchFirstLevel(issue_addr);

    if (cands.empty()) {
        ++nFruitless;
        if (fruitlessRun == 0)
            runStartAddr = issue_addr;
        ++fruitlessRun;
        if (fruitlessRun >= prm.missSearchLimit) {
            // Miss reported at the starting search address, at the b3
            // cycle of this search (paper Table 2).
            if (sink != nullptr)
                sink->noteBtb1Miss(runStartAddr, now + 3);
            ++nMissReports;
            fruitlessRun = 0;
        }
        // Continue sequentially at the next 32 B row, in bursts of
        // seqBurst searches followed by seqBurst dead cycles.
        const std::uint32_t row_bytes = bp.btb1().config().rowBytes;
        searchAddr = alignDown(issue_addr, row_bytes) + row_bytes;
        ++seqBurstCount;
        if (seqBurstCount % prm.seqBurst == 0)
            nextSearchAt = now + 1 + prm.seqBurst;
        else
            nextSearchAt = now + 1;
        return;
    }

    // Found candidates: form predictions in program order.
    seqBurstCount = 0;
    fruitlessRun = 0;

    unsigned not_taken = 0;
    for (const auto &c : cands) {
        Prediction p = bp.makePrediction(c, nextSeq++);

        if (p.taken) {
            // Re-index timing (Table 1).
            const bool self_loop = p.target == p.ia;
            const bool fit_hit = bp.fit().hitThenLearn(p.ia, p.target);
            unsigned delta;
            if (self_loop && fit_hit) {
                delta = 1; // single taken branch loop: 1 pred / cycle
            } else if (fit_hit) {
                delta = 2; // FIT-supplied index at b2
                ++nFitAccel;
            } else if (c.inMruWay) {
                delta = 3; // b3 re-index assuming MRU column
            } else {
                delta = 4; // b4 re-index
            }
            p.availableAt = now + (c.inMruWay ? 4 : 5);
            preds.push_back(p);
            ++nTaken;
            searchAddr = p.target;
            nextSearchAt = now + delta;
            return;
        }

        // Not-taken prediction.
        ++not_taken;
        p.availableAt = now + 4 + not_taken; // b5, b6
        preds.push_back(p);
        ++nNotTaken;
        if (not_taken >= prm.maxNotTakenPerRow) {
            // Row exhausted its broadcast slots; continue just past the
            // last not-taken branch (2-byte instruction granularity).
            // The follow-up search issues at b4; together with its
            // (usually fruitless) same-row pass this yields the paper's
            // 2-predictions-per-5-cycles steady state.
            searchAddr = p.ia + 2;
            nextSearchAt = now + 4;
            return;
        }
    }

    // Only not-taken predictions, fewer than the per-row cap: continue
    // past the last one at the 1-per-4-cycles rate.
    ZBP_ASSERT(not_taken >= 1, "expected at least one prediction");
    searchAddr = preds.back().ia + 2;
    nextSearchAt = now + 4;
}

void
SearchPipeline::saveState(ckpt::Writer &w) const
{
    state(*this, w);
}

void
SearchPipeline::restoreState(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
SearchPipeline::state(Self &s, Io &io)
{
    io.beginSection(ckpt::tag::kSearchPipe);
    io.list32(s.preds, [&io](auto &p) { Prediction::state(p, io); });
    io.u64(s.nextSeq);
    io.flag(s.searching);
    io.u64(s.searchAddr);
    io.u64(s.nextSearchAt);
    io.u32(s.seqBurstCount);
    io.u32(s.fruitlessRun);
    io.u64(s.runStartAddr);
    io.counter(s.nSearches);
    io.counter(s.nFruitless);
    io.counter(s.nTaken);
    io.counter(s.nNotTaken);
    io.counter(s.nMissReports);
    io.counter(s.nFitAccel);
    io.counter(s.nQueueFull);
    io.endSection();
}

} // namespace zbp::core
