/**
 * @file
 * True-LRU recency state for one set of an N-way associative structure.
 *
 * The paper's semi-exclusive hierarchy leans on explicit LRU manipulation:
 * a BTB2 hit is *demoted to LRU* (so later victims overwrite it) and a
 * BTB1 victim is written into the BTB2's LRU way and *promoted to MRU*.
 * This class therefore exposes demote() as well as the usual touch().
 *
 * Storage is one 64-bit word of 4-bit way numbers, not a heap vector:
 * structures keep one LruState per set, and touch() runs on every
 * cache/BTB access of the simulation hot path.  A word keeps the whole
 * per-set recency table contiguous (no per-set pointer chase) and turns
 * the reorder into a few shifts and masks in one register, with no
 * memmove call.
 */

#ifndef ZBP_UTIL_LRU_HH
#define ZBP_UTIL_LRU_HH

#include <bit>
#include <cstdint>

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
    unsigned lru() const { return at(0); }

    /** The most recently used way. */
    unsigned mru() const { return at(nWays - 1u); }

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
        order = 0;
        for (unsigned w = 0; w < nWays; ++w)
            order |= std::uint64_t{w} << (4 * w);
    }

    /** Checkpoint the recency order, one byte per way from LRU to MRU
     * (ckpt.hh field verbs); a restored order must be a permutation. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        std::uint8_t o[kMaxWays];
        for (unsigned i = 0; i < s.nWays; ++i)
            o[i] = static_cast<std::uint8_t>(s.at(i));
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
        order = 0;
        for (unsigned i = 0; i < n; ++i)
            order |= std::uint64_t{ways[i]} << (4 * i);
        return true;
    }

    /** Recency rank of @p way: 0 = LRU .. ways-1 = MRU. */
    unsigned
    rank(unsigned way) const
    {
        const unsigned pos = way < nWays ? find(way) : nWays;
        if (pos >= nWays)
            panic("LruState::rank: way ", way, " not present");
        return pos;
    }

  private:
    static constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ull;

    /** The way at recency position @p pos. */
    unsigned
    at(unsigned pos) const
    {
        return static_cast<unsigned>(order >> (4 * pos)) & 0xFu;
    }

    /** The nibbles below position @p pos (all of them at 16). */
    static std::uint64_t
    below(std::uint64_t x, unsigned pos)
    {
        return pos >= kMaxWays ? x : x & ((std::uint64_t{1} << (4 * pos)) - 1);
    }

    /** The nibbles from position @p pos up, moved down to position 0. */
    static std::uint64_t
    from(std::uint64_t x, unsigned pos)
    {
        return pos >= kMaxWays ? 0 : x >> (4 * pos);
    }

    /** The nibbles of @p x moved up to start at position @p pos. */
    static std::uint64_t
    upTo(std::uint64_t x, unsigned pos)
    {
        return pos >= kMaxWays ? 0 : x << (4 * pos);
    }

    /** Position of @p way: the lowest zero nibble of order ^ way.  A
     * lower nonzero nibble never borrows, so the lowest flagged nibble
     * is exact; the zero nibbles above nWays lie above the way's own. */
    unsigned
    find(unsigned way) const
    {
        const std::uint64_t x = order ^ (kNibbleOnes * way);
        const std::uint64_t zero = (x - kNibbleOnes) & ~x &
                                   (kNibbleOnes << 3);
        return zero == 0 ? kMaxWays
                         : static_cast<unsigned>(std::countr_zero(zero)) / 4;
    }

    void
    moveTo(unsigned way, unsigned pos)
    {
        ZBP_ASSERT(way < nWays, "way out of range");
        const unsigned cur = find(way);
        ZBP_ASSERT(cur < nWays, "corrupt LRU state");
        // Take the way out, then put it back in at pos.
        const std::uint64_t rest =
                below(order, cur) | upTo(from(order, cur + 1), cur);
        order = below(rest, pos) | (std::uint64_t{way} << (4 * pos)) |
                upTo(from(rest, pos), pos + 1);
    }

    /** Nibble i holds the way at recency position i: 0 = LRU ..
     * nWays-1 = MRU; the nibbles above stay zero. */
    std::uint64_t order = 0;
    std::uint8_t nWays;
};

} // namespace zbp

#endif // ZBP_UTIL_LRU_HH
