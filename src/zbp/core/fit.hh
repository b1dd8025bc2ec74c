/**
 * @file
 * Fast Index Table (FIT).
 *
 * Paper §3.2: a 64-branch structure that accelerates re-indexing of the
 * first-level search after a predicted-taken branch, enabling
 * predictions every other cycle (and every cycle for a tight single-
 * taken-branch loop).  The FIT learns, for a taken branch, where the
 * search will land next; the acceleration only applies when the learned
 * target still matches the prediction actually made.
 *
 * Storage: a flat node array with an intrusive doubly-linked LRU list.
 * At 64 entries a linear scan over one packed array beats a node-based
 * map — no hashing, no pointer chasing, no allocation per learn (the
 * previous std::list + std::unordered_map implementation paid a heap
 * node for every insertion on this per-taken-prediction path).
 */

#ifndef ZBP_CORE_FIT_HH
#define ZBP_CORE_FIT_HH

#include <cstdint>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/types.hh"
#include "zbp/stats/stats.hh"

namespace zbp::core
{

/** Fully associative, true-LRU branch -> next-search-index cache. */
class FastIndexTable
{
  public:
    explicit FastIndexTable(unsigned entries = 64)
        : capacity(entries), nodes(entries)
    {
    }

    /**
     * Query at prediction time: does the FIT know this taken branch and
     * does its remembered target match @p predicted_target?
     */
    bool
    hit(Addr branch_ia, Addr predicted_target)
    {
        const unsigned i = find(branch_ia);
        if (i == kNone)
            return false;
        promote(i);
        if (nodes[i].target != predicted_target) {
            ++nMismatch;
            return false;
        }
        ++nHits;
        return true;
    }

    /** Learn/refresh a taken branch's next-search target. */
    void
    learn(Addr branch_ia, Addr target)
    {
        const unsigned i = find(branch_ia);
        if (i != kNone) {
            nodes[i].target = target;
            promote(i);
            return;
        }
        insert(branch_ia, target);
    }

    /**
     * hit(branch_ia, target) then learn(branch_ia, target), the search
     * pipeline's per-taken-prediction pair, with one scan: same result,
     * same counters, same table state.
     */
    bool
    hitThenLearn(Addr branch_ia, Addr target)
    {
        const unsigned i = find(branch_ia);
        if (i == kNone) {
            insert(branch_ia, target);
            return false;
        }
        promote(i);
        if (nodes[i].target != target) {
            ++nMismatch;
            nodes[i].target = target;
            return false;
        }
        ++nHits;
        return true;
    }

    void
    reset()
    {
        count = 0;
        head = tail = kNone;
    }

    std::size_t size() const { return count; }

    void
    registerStats(stats::Group &g) const
    {
        g.add("hits", nHits, "accelerated re-indexes");
        g.add("mismatches", nMismatch, "FIT target stale at prediction");
    }

    /** Serialize into one checkpoint section. */
    void saveState(ckpt::Writer &w) const { state(*this, w); }

    /** Overwrite from a checkpoint section; throws CkptError on
     * geometry mismatch or out-of-range link indices. */
    void restoreState(ckpt::Reader &r) { state(*this, r); }

  private:
    static constexpr unsigned kNone = ~0u;

    struct Node
    {
        Addr ia = 0;
        Addr target = 0;
        unsigned prev = kNone;
        unsigned next = kNone;
    };

    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        io.beginSection(ckpt::tag::kFit);
        io.expect(static_cast<std::uint32_t>(s.capacity), "FIT capacity");
        io.u32(s.count);
        io.check(s.count <= s.capacity, "FIT count out of range");
        const auto link_ok = [&s](unsigned v) {
            return v == kNone || v < s.count;
        };
        io.u32(s.head);
        io.u32(s.tail);
        io.check(link_ok(s.head) && link_ok(s.tail),
                 "FIT list head/tail out of range");
        if constexpr (Io::kReading)
            s.nodes.assign(s.capacity, Node{});
        for (unsigned i = 0; i < s.count; ++i) {
            auto &n = s.nodes[i];
            io.u64(n.ia);
            io.u64(n.target);
            io.u32(n.prev);
            io.u32(n.next);
            io.check(link_ok(n.prev) && link_ok(n.next),
                     "FIT node link out of range");
        }
        io.counter(s.nHits);
        io.counter(s.nMismatch);
        io.endSection();
    }

    /** Add a branch that find() missed, evicting the LRU node when
     * full. */
    void
    insert(Addr branch_ia, Addr target)
    {
        if (capacity == 0)
            return;
        unsigned slot;
        if (count >= capacity) {
            slot = tail; // evict the LRU node, reusing its slot
            unlink(slot);
        } else {
            slot = count++;
        }
        nodes[slot].ia = branch_ia;
        nodes[slot].target = target;
        linkFront(slot);
    }

    /** All slots below count are live, so one pass over the packed
     * array is the whole lookup. */
    unsigned
    find(Addr branch_ia) const
    {
        for (unsigned i = 0; i < count; ++i)
            if (nodes[i].ia == branch_ia)
                return i;
        return kNone;
    }

    void
    unlink(unsigned i)
    {
        Node &n = nodes[i];
        if (n.prev != kNone)
            nodes[n.prev].next = n.next;
        else
            head = n.next;
        if (n.next != kNone)
            nodes[n.next].prev = n.prev;
        else
            tail = n.prev;
    }

    void
    linkFront(unsigned i)
    {
        nodes[i].prev = kNone;
        nodes[i].next = head;
        if (head != kNone)
            nodes[head].prev = i;
        head = i;
        if (tail == kNone)
            tail = i;
    }

    void
    promote(unsigned i)
    {
        if (head == i)
            return;
        unlink(i);
        linkFront(i);
    }

    unsigned capacity;
    std::vector<Node> nodes;
    unsigned count = 0;     ///< live slots (always the prefix)
    unsigned head = kNone;  ///< MRU
    unsigned tail = kNone;  ///< LRU

    stats::Counter nHits;
    stats::Counter nMismatch;
};

} // namespace zbp::core

#endif // ZBP_CORE_FIT_HH
