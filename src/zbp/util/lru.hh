/**
 * @file
 * True-LRU recency state for one set of an N-way associative structure.
 *
 * The paper's semi-exclusive hierarchy leans on explicit LRU manipulation:
 * a BTB2 hit is *demoted to LRU* (so later victims overwrite it) and a
 * BTB1 victim is written into the BTB2's LRU way and *promoted to MRU*.
 * This class therefore exposes demote() as well as the usual touch().
 *
 * Storage is a fixed inline byte array, not a heap vector: structures
 * keep one LruState per set, and touch() runs on every cache/BTB access
 * of the simulation hot path.  Inline storage keeps the whole per-set
 * recency table contiguous (no per-set pointer chase) and turns the
 * reorder into a handful of in-register byte moves.
 */

#ifndef ZBP_UTIL_LRU_HH
#define ZBP_UTIL_LRU_HH

#include <cstdint>
#include <cstring>

#include "zbp/common/log.hh"

namespace zbp
{

/** Recency order over ways 0..N-1 of a single set. */
class LruState
{
  public:
    /** Widest supported set (the simulated structures top out at 8). */
    static constexpr unsigned kMaxWays = 16;

    explicit LruState(unsigned ways)
        : nWays(static_cast<std::uint8_t>(ways))
    {
        ZBP_ASSERT(ways >= 1 && ways <= kMaxWays,
                   "LruState way count out of range");
        // Initially way 0 is LRU, way N-1 is MRU (arbitrary but fixed).
        reset();
    }

    unsigned ways() const { return nWays; }

    /** The least recently used way (replacement victim). */
    unsigned lru() const { return order[0]; }

    /** The most recently used way. */
    unsigned mru() const { return order[nWays - 1]; }

    /** Promote @p way to MRU. */
    void
    touch(unsigned way)
    {
        moveTo(way, nWays - 1u);
    }

    /** Demote @p way to LRU (paper: BTB2 hits become LRU so subsequent
     * BTB1 victims are likely to replace them). */
    void
    demote(unsigned way)
    {
        moveTo(way, 0);
    }

    /** Back to the initial recency order (way 0 LRU .. N-1 MRU). */
    void
    reset()
    {
        for (unsigned w = 0; w < nWays; ++w)
            order[w] = static_cast<std::uint8_t>(w);
    }

    /** Checkpoint the recency order, one byte per way from LRU to MRU
     * (ckpt.hh field verbs); a restored order must be a permutation. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        std::uint8_t o[kMaxWays];
        std::memcpy(o, s.order, s.nWays);
        for (unsigned i = 0; i < s.nWays; ++i)
            io.u8(o[i]);
        if constexpr (Io::kReading)
            io.check(s.setOrder(o, s.nWays),
                     "LRU state is not a permutation");
    }

    /**
     * Overwrite the recency order from @p ways (position 0 = LRU).
     * Returns false — state unchanged — unless @p ways is a valid
     * permutation of 0..ways()-1, so a corrupt snapshot can never
     * install an order rank()/moveTo() would panic on.
     */
    bool
    setOrder(const std::uint8_t *ways, unsigned n)
    {
        if (n != nWays)
            return false;
        unsigned seen = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (ways[i] >= nWays || (seen & (1u << ways[i])) != 0)
                return false;
            seen |= 1u << ways[i];
        }
        std::memcpy(order, ways, n);
        return true;
    }

    /** Recency rank of @p way: 0 = LRU .. ways-1 = MRU. */
    unsigned
    rank(unsigned way) const
    {
        for (unsigned i = 0; i < nWays; ++i)
            if (order[i] == way)
                return i;
        panic("LruState::rank: way ", way, " not present");
    }

  private:
    void
    moveTo(unsigned way, unsigned pos)
    {
        ZBP_ASSERT(way < nWays, "way out of range");
        unsigned cur = 0;
        while (order[cur] != way) {
            ++cur;
            ZBP_ASSERT(cur < nWays, "corrupt LRU state");
        }
        if (cur < pos)
            std::memmove(order + cur, order + cur + 1, pos - cur);
        else if (cur > pos)
            std::memmove(order + pos + 1, order + pos, cur - pos);
        order[pos] = static_cast<std::uint8_t>(way);
    }

    std::uint8_t order[kMaxWays]; ///< order[0]=LRU .. order[nWays-1]=MRU
    std::uint8_t nWays;
};

} // namespace zbp

#endif // ZBP_UTIL_LRU_HH
