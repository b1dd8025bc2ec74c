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
 * needs exist: assign, insert, find, clear, and a checkpoint listing
 * in ascending key order, which depends on the contents alone (not on
 * the slot layout or its insertion history).
 */

#ifndef ZBP_UTIL_FLAT_ADDR_MAP_HH
#define ZBP_UTIL_FLAT_ADDR_MAP_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
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

    /**
     * The checkpointed fields (ckpt.hh field verbs): a counted list of
     * the entries in ascending key order, each its key and, unless V
     * is NoValue, its value as a u64.  A restore rejects a list that
     * is not strictly ascending: the order is canonical, so any other
     * order is corruption.
     */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        const auto entry = [&io](auto &e) {
            io.u64(e.key);
            if constexpr (!std::is_empty_v<V>)
                io.u64(e.value);
        };
        if constexpr (Io::kReading) {
            const std::size_t n = io.count64(0);
            s.clear();
            Slot e;
            for (std::size_t i = 0; i < n; ++i) {
                const Addr prev = e.key;
                entry(e);
                io.check(e.key != kNoAddr && (i == 0 || e.key > prev),
                         "address list not in ascending order");
                s.assign(e.key, e.value);
            }
        } else {
            std::vector<Slot> sorted;
            for (const Slot &e : s.slots)
                if (e.key != kNoAddr)
                    sorted.push_back(e);
            std::sort(sorted.begin(), sorted.end(),
                      [](const Slot &a, const Slot &b) {
                          return a.key < b.key;
                      });
            io.count64(sorted.size());
            for (const Slot &e : sorted)
                entry(e);
        }
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

} // namespace zbp

#endif // ZBP_UTIL_FLAT_ADDR_MAP_HH
