/**
 * @file
 * Generic set-associative branch target buffer.
 *
 * Rows span a fixed number of instruction bytes (32 B on zEC12, so e.g.
 * "instruction address bits 49:58 index the BTB1" reduces to
 * (ia >> 5) mod rows); a row holds several ways; each way is one branch
 * (a BtbEntry).  A row can therefore hold several branches from the same
 * 32-byte chunk of code, which is what lets the first-level search make
 * up to two not-taken predictions per row per cycle (paper §3.2).
 *
 * Storage is structure-of-arrays: the search-relevant state lives in a
 * packed key plane (one 64-bit valid|tag word per way, rows padded to
 * kMaxBtbWays lanes so a row's keys are exactly one 64-byte line), with
 * the instruction address, target and direction/gate planes held in
 * separate contiguous arrays.  A row search touches only the signature
 * and key planes — one dense way compare (btb/simd.hh) — and the wider
 * planes are read per *hit*, not per way probed.  BtbEntry is
 * a materialized view assembled on demand.
 *
 * The class exposes the LRU surgery the semi-exclusive hierarchy needs:
 * install into the LRU way, explicit demote-to-LRU (BTB2 hits), and
 * promote-to-MRU (BTB1 victims written into the BTB2).
 */

#ifndef ZBP_BTB_SET_ASSOC_BTB_HH
#define ZBP_BTB_SET_ASSOC_BTB_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "zbp/btb/btb_entry.hh"
#include "zbp/btb/simd.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/bitfield.hh"
#include "zbp/stats/stats.hh"
#include "zbp/util/inline_vec.hh"
#include "zbp/util/lru.hh"

namespace zbp::btb
{

/** Upper bound on ways for the inline hit list and the padded key-plane
 * row stride (largest real config, BTBP/BTB2, uses 6; the Fig. 5 sweep
 * never exceeds that).  Constructor-enforced: a config with more ways
 * is rejected with std::invalid_argument. */
constexpr std::uint32_t kMaxBtbWays = 8;

/** Geometry of one BTB level. */
struct BtbConfig
{
    std::uint32_t rows = 1024;   ///< power of two
    std::uint32_t ways = 4;
    std::uint32_t rowBytes = 32; ///< instruction bytes covered per row
    /** Tag bits above the row index participating in a match; smaller
     * values re-introduce the aliasing the paper discusses. */
    unsigned tagBits = 40;

    // Derived shift/mask constants so the per-access address math is
    // all shifts (rows and rowBytes are powers of two).  Filled in by
    // precompute(); a default-initialised config is unusable until a
    // SetAssocBtb (whose constructor calls it) owns it.
    unsigned rowShift = 0;          ///< log2(rowBytes)
    std::uint64_t rowMask = 0;      ///< rows - 1
    std::uint64_t offsetMask = 0;   ///< rowBytes - 1
    unsigned tagShift = 0;          ///< log2(rows * rowBytes)
    std::uint64_t tagMask = 0;      ///< maskBits(tagBits)

    std::uint64_t entries() const { return std::uint64_t{rows} * ways; }

    void
    precompute()
    {
        rowShift = floorLog2(rowBytes);
        rowMask = std::uint64_t{rows} - 1;
        offsetMask = std::uint64_t{rowBytes} - 1;
        tagShift = floorLog2(std::uint64_t{rows} * rowBytes);
        tagMask = maskBits(tagBits);
    }
};

/** zEC12 BTB1: 4k branches, 1k x 4, IA bits 49:58. */
BtbConfig btb1Config();
/** zEC12 BTBP: 768 branches, 128 x 6, IA bits 52:58. */
BtbConfig btbpConfig();
/** zEC12 BTB2: 24k branches, 4k x 6, IA bits 47:58. */
BtbConfig btb2Config();

/** An entry found in the structure: its slot plus a materialized copy
 * of the SoA planes' content for that way. */
struct BtbHit
{
    std::uint32_t row;
    std::uint32_t way;
    BtbEntry entry;
};

/**
 * Fixed-capacity hit list: at most one hit per way, so a row access can
 * never produce more than kMaxBtbWays hits.  Returned by value from the
 * row-access primitives without touching the heap; raw-storage backed
 * (util/inline_vec.hh) so constructing one for the common empty-probe
 * case writes one size field, not kMaxBtbWays blank entries.
 */
using BtbHitList = InlineVec<BtbHit, kMaxBtbWays>;

/** Generic tagged set-associative BTB (SoA planes, one-line key rows). */
class SetAssocBtb
{
  public:
    /** Padded way stride of every plane: each row's key lane group is
     * one 64-byte line regardless of the configured associativity. */
    static constexpr std::uint32_t kWayStride = kMaxBtbWays;

    /** Throws std::invalid_argument when cfg.ways is 0 or exceeds
     * kMaxBtbWays (the inline hit-list / lane-group capacity). */
    SetAssocBtb(std::string name, const BtbConfig &cfg);

    const BtbConfig &config() const { return cfg; }
    const std::string &name() const { return btbName; }

    /** Row number for @p ia. */
    std::uint32_t
    rowOf(Addr ia) const
    {
        return static_cast<std::uint32_t>((ia >> cfg.rowShift) &
                                          cfg.rowMask);
    }

    /** Does @p entry_ia tag-match a lookup of @p ia (same row assumed)? */
    bool
    tagMatch(Addr entry_ia, Addr ia) const
    {
        // The tag is the low tagBits of the address above the row-index
        // field; XOR-then-mask compares both tags in two ops.
        return (((entry_ia ^ ia) >> cfg.tagShift) & cfg.tagMask) == 0;
    }

    /**
     * One-bit-in-64 signature of the tag of @p ia, for the per-row
     * tag-presence filter.  rowSig[row] is the OR of the signatures of
     * every tag ever written to the row since the last reset(), so a
     * clear signature bit proves no current entry can tag-match (the
     * superset invariant: stale bits from evicted/invalidated entries
     * only cause a harmless full row walk, never a skipped hit).
     */
    std::uint64_t
    tagSig(Addr ia) const
    {
        const std::uint64_t tag = (ia >> cfg.tagShift) & cfg.tagMask;
        return std::uint64_t{1}
               << ((tag * 0x9E3779B97F4A7C15ull) >> 58);
    }

    /** The key-plane word a lookup of @p ia must equal: valid bit ORed
     * with the tag (tagBits <= 58, so bit 63 is free).  Invalid and
     * padding lanes hold 0 and can never equal a search key. */
    std::uint64_t
    searchKey(Addr ia) const
    {
        return kValidBit | ((ia >> cfg.tagShift) & cfg.tagMask);
    }

    /**
     * The shared row prefilter + way compare: per-way bitmask of valid,
     * tag-matching lanes of @p row for a lookup of @p ia.  One inlined
     * helper feeds searchFrom, readRow, lookup and install: the rowSig
     * test rejects most foreign rows on one 64-bit load, and the key
     * compare (btb/simd.hh) scans the row's one-line lane group.
     */
    std::uint32_t
    rowMatchMask(std::uint32_t row, Addr ia) const
    {
        if ((rowSig[row] & tagSig(ia)) == 0)
            return 0;
        return simd::matchWays(&keys[slotBase(row)], searchKey(ia),
                               cfg.ways);
    }

    /** Can the row of @p ia possibly hold a tag match?  The bare rowSig
     * filter probe, for callers that combine several tables' filters
     * into one fruitless-search fast path. */
    bool
    sigHit(Addr ia) const
    {
        return (rowSig[rowOf(ia)] & tagSig(ia)) != 0;
    }

    /** Hint the signature + key planes of the row of @p ia into cache
     * ahead of a probe (semantics-free; used to overlap the BTB1/BTBP
     * loads of one first-level search and the BTB2 bulk-read stream). */
    void
    prefetchProbe(Addr ia) const
    {
        const std::uint32_t row = rowOf(ia);
        simd::prefetchRead(&rowSig[row]);
        simd::prefetchRead(&keys[slotBase(row)]);
    }

    /**
     * Search the row of @p search_addr for valid, tag-matching branches
     * located at or after @p search_addr, in ascending address order.
     * This is the first-level search primitive: one call models one
     * row access of the b0..b3 pipeline.  Defined here (not in the
     * .cc) so the per-search callers inline the way loop.
     */
    BtbHitList
    searchFrom(Addr search_addr) const
    {
        const std::uint32_t row = rowOf(search_addr);
        BtbHitList hits;
        std::uint32_t m = rowMatchMask(row, search_addr);
        if (m == 0)
            return hits;
        const Addr *ia_lane = &ias[slotBase(row)];
        const std::uint64_t from = search_addr & cfg.offsetMask;
        // Walking match lanes in ascending way order and inserting by
        // row offset keeps the list sorted by (offset, way) without a
        // sort pass.
        do {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            m &= m - 1;
            // Same-row offset comparison: only branches at or after
            // the search point are candidates.
            const std::uint64_t off = ia_lane[w] & cfg.offsetMask;
            if (off < from)
                continue;
            std::size_t pos = hits.size();
            while (pos > 0 &&
                   (hits[pos - 1].entry.ia & cfg.offsetMask) > off)
                --pos;
            hits.insertAt(pos, {row, w, entryAt(row, w)});
        } while (m != 0);
        return hits;
    }

    /** All valid tag-matching branches anywhere in the row of @p addr
     * (BTB2 bulk read primitive: one row per cycle), in way order. */
    BtbHitList
    readRow(Addr row_addr) const
    {
        BtbHitList hits;
        visitRow(row_addr, [&](std::uint32_t row, std::uint32_t way) {
            hits.push_back({row, way, entryAt(row, way)});
        });
        return hits;
    }

    /** readRow() without the hit list: @p fn(row, way) for each slot
     * readRow() would return, in the same order.  The ways are chosen
     * before the first call, so @p fn may change recency (demote) but
     * not the row's contents. */
    template <typename Fn>
    void
    visitRow(Addr row_addr, Fn &&fn) const
    {
        const std::uint32_t row = rowOf(row_addr);
        std::uint32_t m = rowMatchMask(row, row_addr);
        while (m != 0) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            m &= m - 1;
            fn(row, w);
        }
    }

    /** Exact-address lookup (update path). Returns nullopt on miss. */
    std::optional<BtbHit>
    lookup(Addr ia) const
    {
        const std::uint32_t row = rowOf(ia);
        std::uint32_t m = rowMatchMask(row, ia);
        const Addr *ia_lane = &ias[slotBase(row)];
        while (m != 0) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            m &= m - 1;
            if (((ia_lane[w] ^ ia) & cfg.offsetMask) == 0)
                return BtbHit{row, w, entryAt(row, w)};
        }
        return std::nullopt;
    }

    /**
     * Does slot (@p row, @p way) still hold the branch at @p ia: valid,
     * same tag, same row offset?  Lets a caller reuse the slot an
     * earlier probe found instead of a second lookup().
     */
    bool
    holds(std::uint32_t row, std::uint32_t way, Addr ia) const
    {
        const std::size_t s = slotBase(row) + way;
        return row == rowOf(ia) && keys[s] == searchKey(ia) &&
               ((ias[s] ^ ia) & cfg.offsetMask) == 0;
    }

    /** Materialize the entry stored in a known slot (invalid entries
     * come back as a default BtbEntry with valid=false). */
    BtbEntry
    entryAt(std::uint32_t row, std::uint32_t way) const
    {
        ZBP_ASSERT(row < cfg.rows && way < cfg.ways, "slot out of range");
        const std::size_t s = slotBase(row) + way;
        BtbEntry e;
        if ((keys[s] & kValidBit) == 0)
            return e;
        e.valid = true;
        e.ia = ias[s];
        e.target = targets[s];
        e.dir = Bimodal2(static_cast<std::uint8_t>(meta[s] & kDirMask));
        e.phtAllowed = (meta[s] & kPhtBit) != 0;
        e.ctbAllowed = (meta[s] & kCtbBit) != 0;
        return e;
    }

    /** Write @p e back into a known slot (resolve-time training:
     * read-modify-write replaces the old mutable at() accessor). */
    void update(std::uint32_t row, std::uint32_t way, const BtbEntry &e);

    /** In-place direction-state update of a known valid slot. */
    void
    setDir(std::uint32_t row, std::uint32_t way, Bimodal2 dir)
    {
        ZBP_ASSERT(row < cfg.rows && way < cfg.ways, "slot out of range");
        const std::size_t s = slotBase(row) + way;
        meta[s] = static_cast<std::uint8_t>(
                (meta[s] & ~kDirMask) | dir.raw());
    }

    /**
     * Install @p e, replacing an existing entry for the same branch if
     * present, otherwise the LRU way.  The new/updated way is made MRU
     * unless @p make_mru is false (in which case it is made LRU —
     * used for low-priority installs).
     *
     * @return the displaced valid entry, if any.
     */
    std::optional<BtbEntry> install(const BtbEntry &e, bool make_mru = true);

    /** Promote the way holding @p ia to MRU (on use). */
    void touch(Addr ia);

    /** Promote a known slot to MRU: touch() without its lookup. */
    void
    touchSlot(std::uint32_t row, std::uint32_t way)
    {
        ZBP_ASSERT(row < cfg.rows && way < cfg.ways, "slot out of range");
        lru[row].touch(way);
    }

    /** Demote a specific slot to LRU (semi-exclusivity, paper §3.3). */
    void demote(std::uint32_t row, std::uint32_t way);

    /** Is @p way the MRU way of @p row? (Taken predictions from the MRU
     * column re-index one cycle earlier, paper Table 1.) */
    bool
    isMru(std::uint32_t row, std::uint32_t way) const
    {
        return lru[row].mru() == way;
    }

    /** Invalidate the entry for @p ia if present. @return true if hit. */
    bool invalidate(Addr ia);

    /** Invalidate everything. */
    void reset();

    /** Number of currently valid entries (O(size); for tests/stats). */
    std::uint64_t validCount() const;

    /** Serialize every plane + LRU + counters into one checkpoint
     * section (explicit-width fields, independent of the plane layout). */
    void saveState(ckpt::Writer &w) const;

    /** Overwrite from a checkpoint section; throws ckpt::CkptError on
     * geometry mismatch or non-permutation LRU state. */
    void restoreState(ckpt::Reader &r);

    void
    registerStats(stats::Group &g) const
    {
        g.add("installs", nInstalls, "entries written");
        g.add("evictions", nEvictions, "valid entries displaced");
        g.add("updates", nUpdates, "in-place entry updates");
    }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io> static void state(Self &s, Io &io);

    static constexpr std::uint64_t kValidBit = std::uint64_t{1} << 63;
    static constexpr std::uint8_t kDirMask = 0x3;
    static constexpr std::uint8_t kPhtBit = 0x4;
    static constexpr std::uint8_t kCtbBit = 0x8;

    std::size_t
    slotBase(std::uint32_t row) const
    {
        return static_cast<std::size_t>(row) * kWayStride;
    }

    /** Write every plane of one slot from @p e (must be valid). */
    void
    storeEntry(std::uint32_t row, std::uint32_t way, const BtbEntry &e)
    {
        const std::size_t s = slotBase(row) + way;
        keys[s] = searchKey(e.ia);
        ias[s] = e.ia;
        targets[s] = e.target;
        meta[s] = static_cast<std::uint8_t>(
                e.dir.raw() | (e.phtAllowed ? kPhtBit : 0) |
                (e.ctbAllowed ? kCtbBit : 0));
    }

    void
    clearSlot(std::uint32_t row, std::uint32_t way)
    {
        keys[slotBase(row) + way] = 0;
    }

    std::string btbName;
    BtbConfig cfg;
    // SoA planes, each rows x kWayStride (lanes >= ways stay zero).
    std::vector<std::uint64_t> keys; ///< valid|tag search plane
    std::vector<Addr> ias;           ///< full instruction addresses
    std::vector<Addr> targets;       ///< predicted-taken targets
    std::vector<std::uint8_t> meta;  ///< dir state + PHT/CTB gate bits
    std::vector<std::uint64_t> rowSig; ///< per-row tag-presence filter
    std::vector<LruState> lru;

    stats::Counter nInstalls;
    stats::Counter nEvictions;
    stats::Counter nUpdates;
};

} // namespace zbp::btb

#endif // ZBP_BTB_SET_ASSOC_BTB_HH
