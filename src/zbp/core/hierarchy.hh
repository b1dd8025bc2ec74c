/**
 * @file
 * BranchPredictorHierarchy — owns every prediction structure and
 * implements the content-movement flows of the paper:
 *
 *  - parallel BTB1 + BTBP search (the "first level predictor");
 *  - BTBP -> BTB1 promotion upon making a prediction from the BTBP,
 *    with the BTB1 victim written to both the BTBP (victim buffer) and
 *    the BTB2 (semi-exclusive: installed in the LRU way, made MRU);
 *  - surprise installs to BTBP + BTB2;
 *  - branch preload instructions to the BTBP;
 *  - PHT/CTB gated overrides and their resolve-time training;
 *  - speculative vs architectural global history.
 *
 * The *timing* of the search lives in SearchPipeline; the *movement of
 * content* lives here so it can be unit-tested cycle-free.
 */

#ifndef ZBP_CORE_HIERARCHY_HH
#define ZBP_CORE_HIERARCHY_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "zbp/btb/set_assoc_btb.hh"
#include "zbp/core/fit.hh"
#include "zbp/core/params.hh"
#include "zbp/core/prediction.hh"
#include "zbp/dir/ctb.hh"
#include "zbp/dir/history.hh"
#include "zbp/dir/pht.hh"
#include "zbp/dir/surprise_bht.hh"
#include "zbp/trace/instruction.hh"
#include "zbp/util/flat_addr_map.hh"

namespace zbp::core
{

/** A first-level search hit, pre-prediction. */
struct Candidate
{
    btb::BtbEntry entry;      ///< copy of the matched entry
    PredictionSource source;
    /** The address the search logic believes the branch is at: the
     * searched row base plus the entry's in-row offset.  Differs from
     * entry.ia only under tag aliasing. */
    Addr perceivedIa;
    bool inMruWay;            ///< BTB1 MRU-way hit (affects timing)
    std::uint32_t row;        ///< slot the entry was read from, in
    std::uint32_t way;        ///< the table that source names
};

/**
 * Fixed-capacity, perceived-IA-ordered candidate list.  One first-level
 * search consumes at most one hit per way of BTB1 and BTBP, so the
 * bound is 2 x kMaxBtbWays; inline raw storage (util/inline_vec.hh)
 * keeps searchFirstLevel allocation-free and makes the dominant
 * empty-search case cost one size-field store.
 */
using CandidateList = InlineVec<Candidate, 2 * btb::kMaxBtbWays>;

/** The full first+second level branch prediction state. */
class BranchPredictorHierarchy
{
  public:
    /**
     * @p shared_btb2 non-null puts this hierarchy in CMP mode: the
     * second level is an externally-owned structure shared between
     * cores (sim::CmpModel owns it); no private BTB2 is built, and
     * reset() leaves the shared array alone — its owner resets it once
     * per run, not once per core.
     */
    explicit BranchPredictorHierarchy(
            const MachineParams &p,
            btb::SetAssocBtb *shared_btb2 = nullptr);

    // --- structure access -------------------------------------------
    btb::SetAssocBtb &btb1() { return *btb1Ptr; }
    btb::SetAssocBtb &btbp() { return *btbpPtr; }
    btb::SetAssocBtb &btb2() { return *btb2Use; }
    const btb::SetAssocBtb &btb1() const { return *btb1Ptr; }
    const btb::SetAssocBtb &btbp() const { return *btbpPtr; }
    const btb::SetAssocBtb &btb2() const { return *btb2Use; }
    /** False when the BTB2 is the CMP-shared one. */
    bool ownsBtb2() const { return btb2Ptr != nullptr; }
    FastIndexTable &fit() { return fitTable; }
    dir::SurpriseBht &surpriseBht() { return sbht; }
    dir::HistoryState &specHistory() { return specHist; }
    dir::HistoryState &archHistory() { return archHist; }
    dir::Pht &pht() { return phtTable; }
    dir::Ctb &ctb() { return ctbTable; }

    // --- search side -------------------------------------------------
    /**
     * Read the BTB1 and BTBP rows of @p search_addr in parallel and
     * return the matching branches at or after the search point, in
     * ascending perceived-address order (duplicates collapsed, BTB1
     * copy preferred).
     */
    CandidateList searchFirstLevel(Addr search_addr) const;

    /**
     * The first-level hit for a branch at exactly @p ia: BTB1
     * lookup(ia), else BTBP lookup(ia).  This is the candidate
     * searchFirstLevel(ia) yields with perceivedIa == ia, found without
     * building the row's list: both take the lowest matching way at
     * ia's row offset, and the BTB1 copy wins a duplicate.
     */
    std::optional<Candidate> probeFirstLevel(Addr ia) const;

    /** Hint both first-level tables' row planes for an upcoming probe
     * of @p search_addr (issued when the next search address is frozen,
     * consumed by searchFirstLevel cycles later). */
    void
    prefetchFirstLevel(Addr search_addr) const
    {
        btb1Ptr->prefetchProbe(search_addr);
        btbpPtr->prefetchProbe(search_addr);
    }

    /** Hint the PHT/CTB rows addressed by pre-folded hashes @p h
     * (issued at decode for the whole chunk of in-flight predictions,
     * consumed at resolve-time training). */
    void
    prefetchDirTables(const dir::HistoryHashes &h) const
    {
        phtTable.prefetchHashed(h.phtIndex);
        ctbTable.prefetchHashed(h.ctbIndex);
    }

    /**
     * Turn a candidate into a broadcast prediction: choose direction
     * (bimodal, PHT-overridden when gated on), choose target (entry,
     * CTB-overridden when gated on), apply the speculative history and
     * speculative bimodal update, and — when the candidate came from the
     * BTBP — perform the BTBP -> BTB1 promotion with its victim flows.
     *
     * The caller supplies seq and fills in availableAt (timing).  A
     * BTB1 candidate's update reuses its slot when the slot still holds
     * the branch (an earlier promotion in the same search can overwrite
     * it).
     */
    Prediction makePrediction(const Candidate &c, std::uint64_t seq);

    // --- resolve side ------------------------------------------------
    /**
     * Resolve a dynamically predicted branch.  @p found, when given, is
     * the candidate @p pred was made from, with no table write since
     * (the functional path resolves at once): a BTB1 candidate whose
     * slot still holds the branch is trained there instead of looked
     * up.
     */
    void resolvePredicted(const Prediction &pred, trace::InstKind kind,
                          bool actual_taken, Addr actual_target,
                          Cycle now, const Candidate *found = nullptr);

    /** Resolve a surprise branch (installs it when taken). */
    void resolveSurprise(Addr ia, trace::InstKind kind, bool taken,
                         Addr target, Cycle now);

    /** Software branch preload (z BPP/BPRP-like): hint into the BTBP. */
    void preload(Addr ia, Addr target);

    /** Restart: re-synchronize speculative history with architectural
     * state (mispredict or surprise-taken redirect). */
    void restartSpeculation() { specHist.copyFrom(archHist); }

    /** When was @p ia last installed into the hierarchy (for the
     * latency-vs-capacity surprise classification)? */
    std::optional<Cycle> lastInstall(Addr ia) const;

    /** Full wipe (between benchmark repetitions). */
    void reset();

    /** Serialize every owned structure (the CMP-shared BTB2, when
     * attached, is serialized by its owner, not here). */
    void saveState(ckpt::Writer &w) const;

    /** Overwrite from checkpoint sections; throws ckpt::CkptError on
     * mismatch, after which the model must be discarded (ckpt.hh). */
    void restoreState(ckpt::Reader &r);

    void registerStats(stats::Group &g) const;

    const MachineParams &params() const { return prm; }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    /** Fold @p h into the PHT/CTB index+tag hashes (the per-table
     * geometry lives in the tables, hence a hierarchy-level helper). */
    dir::HistoryHashes
    hashesOf(const dir::HistoryState &h) const
    {
        return h.hashes(phtTable.indexWidth(), ctbTable.indexWidth(),
                        phtTable.tagWidth());
    }

    void trainAfterResolve(btb::BtbEntry &entry,
                           const dir::HistoryHashes &hashes,
                           trace::InstKind kind, bool taken, Addr target);

    MachineParams prm;
    std::unique_ptr<btb::SetAssocBtb> btb1Ptr;
    std::unique_ptr<btb::SetAssocBtb> btbpPtr;
    std::unique_ptr<btb::SetAssocBtb> btb2Ptr; ///< null in CMP mode
    btb::SetAssocBtb *btb2Use; ///< btb2Ptr.get() or the shared array
    dir::Pht phtTable;
    dir::Ctb ctbTable;
    dir::SurpriseBht sbht;
    FastIndexTable fitTable;
    dir::HistoryState specHist;
    dir::HistoryState archHist;

    FlatAddrMap<Cycle> installCycle;

    stats::Counter nPredictions;
    stats::Counter nPromotions;
    stats::Counter nVictimsToBtb2;
    stats::Counter nSurpriseInstalls;
    stats::Counter nPreloads;
    stats::Counter nPhtOverrides;
    stats::Counter nCtbOverrides;
};

} // namespace zbp::core

#endif // ZBP_CORE_HIERARCHY_HH
