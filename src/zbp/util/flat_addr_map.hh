/**
 * @file
 * Open-addressing Addr -> value map for simulator-internal bookkeeping.
 *
 * std::unordered_map pays a heap node per insertion and a pointer chase
 * per lookup; on per-resolve paths (e.g. the surprise-install cycle
 * book) that malloc traffic is pure overhead — and it is invisible to
 * gprof, which does not sample shared-library time.  This table keeps
 * everything in one flat power-of-two array with linear probing and
 * grows by doubling at 70% load.  Only the operations the simulator
 * needs exist: assign, insert, find, clear.
 *
 * StdOrderAddrSet adds the one thing a flat table cannot give: the
 * iteration order of the std::unordered_set it replaced, which the
 * outcome tracker's checkpoint lists its seen branches in.
 */

#ifndef ZBP_UTIL_FLAT_ADDR_MAP_HH
#define ZBP_UTIL_FLAT_ADDR_MAP_HH

#include <cstdint>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "zbp/common/log.hh"
#include "zbp/common/types.hh"

namespace zbp
{

/** The value type of a FlatAddrMap used as a set: it takes no space. */
struct NoValue
{
};

/** Flat open-addressing map from Addr to @p V (V default-constructible).
 * kNoAddr marks an empty slot, so it is the one key never stored. */
template <typename V>
class FlatAddrMap
{
  public:
    explicit FlatAddrMap(std::size_t min_capacity = 64)
    {
        std::size_t cap = 16;
        while (cap < min_capacity)
            cap <<= 1;
        slots.resize(cap);
    }

    /** Insert or overwrite the value for @p key. */
    void
    assign(Addr key, const V &value)
    {
        ZBP_ASSERT(key != kNoAddr, "kNoAddr is not a storable key");
        if ((count + 1) * 10 >= slots.size() * 7)
            grow();
        Slot &s = probe(key);
        if (s.key == kNoAddr) {
            s.key = key;
            ++count;
        }
        s.value = value;
    }

    /** Add @p key with @p value unless present (one probe where
     * find() then assign() take two).  @return true when it was added. */
    bool
    insert(Addr key, const V &value = V{})
    {
        ZBP_ASSERT(key != kNoAddr, "kNoAddr is not a storable key");
        Slot *s = &probe(key);
        if (s->key != kNoAddr)
            return false;
        if ((count + 1) * 10 >= slots.size() * 7) {
            grow();
            s = &probe(key);
        }
        s->key = key;
        s->value = value;
        ++count;
        return true;
    }

    /** Pointer to the value for @p key, or nullptr when absent. */
    const V *
    find(Addr key) const
    {
        const Slot &s = probe(key);
        return s.key != kNoAddr ? &s.value : nullptr;
    }

    void
    clear()
    {
        for (auto &s : slots)
            s.key = kNoAddr;
        count = 0;
    }

    std::size_t size() const { return count; }

    /** Visit every (key, value) pair in unspecified order (snapshot
     * serialization; re-population goes through assign()). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots)
            if (s.key != kNoAddr)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        Addr key = kNoAddr;
        [[no_unique_address]] V value{};
    };
    static_assert(!std::is_empty_v<V> || sizeof(Slot) == sizeof(Addr),
                  "a set's slot holds the key alone");

    static std::size_t
    hashOf(Addr key)
    {
        // Fibonacci multiplicative mix; low bits become the probe start
        // after masking.
        return static_cast<std::size_t>(
                (key * 0x9E3779B97F4A7C15ull) >> 17);
    }

    /** The slot holding @p key, or the empty slot where it would go. */
    Slot &
    probe(Addr key)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = hashOf(key) & mask;
        while (slots[i].key != kNoAddr && slots[i].key != key)
            i = (i + 1) & mask;
        return slots[i];
    }

    const Slot &
    probe(Addr key) const
    {
        return const_cast<FlatAddrMap *>(this)->probe(key);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots);
        slots.assign(old.size() * 2, Slot{});
        count = 0;
        for (const Slot &s : old) {
            if (s.key == kNoAddr)
                continue;
            Slot &d = probe(s.key);
            ZBP_ASSERT(d.key == kNoAddr, "rehash collision on distinct keys");
            d = s;
            ++count;
        }
    }

    std::vector<Slot> slots;
    std::size_t count = 0;
};

/**
 * A flat set of addresses that lists its members in the order a
 * std::unordered_set<Addr> given the same insertions iterates in.  That
 * order follows the standard library's bucket layout and rehash
 * history, so no flat layout can hold it; this set keeps the history
 * instead (the members in insertion order, 8 bytes each) and replays
 * it through a std::unordered_set the first time it lists itself,
 * which only a checkpoint save does.  Membership tests never touch the
 * history.
 */
class StdOrderAddrSet
{
  public:
    /** Add @p a unless present.  @return true when it was added. */
    bool
    insert(Addr a)
    {
        if (!index.insert(a))
            return false;
        log.push_back(a);
        return true;
    }

    std::size_t size() const { return log.size(); }

    /** Visit every member in std::unordered_set order.  Not for
     * concurrent calls on one set: the first one builds the order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (!cached) {
            // After a restore the restored members come first: a table
            // grown from empty to their count has the listed table's
            // bucket count (growth depends on the count alone); emptied
            // and refilled back to front, each member lands at the front
            // of its bucket's run, or of the whole list, which rebuilds
            // the listed order.
            order = std::unordered_set<Addr>();
            for (std::size_t i = 0; i < restored; ++i)
                order.insert(log[i]);
            order.clear();
            for (std::size_t i = restored; i-- > 0;)
                order.insert(log[i]);
            inOrder = restored;
            cached = true;
        }
        for (; inOrder < log.size(); ++inOrder)
            order.insert(log[inOrder]);
        for (const Addr a : order)
            fn(a);
    }

    /** Refill from members listed in forEach() order, so that forEach()
     * lists them in that order again and the set goes on as the listed
     * one would; inserting them in list order would not. */
    void
    restore(const std::vector<Addr> &listed)
    {
        index.clear();
        log.clear();
        for (const Addr a : listed)
            insert(a);
        restored = log.size();
        cached = false;
    }

  private:
    FlatAddrMap<NoValue> index;
    std::vector<Addr> log;    ///< members in insertion order
    std::size_t restored = 0; ///< leading log members a restore listed
    // The replayed order, kept between saves so each one replays only
    // the members added since the last.
    mutable std::unordered_set<Addr> order;
    mutable std::size_t inOrder = 0; ///< log members already in order
    mutable bool cached = false;
};

} // namespace zbp

#endif // ZBP_UTIL_FLAT_ADDR_MAP_HH
