/**
 * @file
 * Tests for the flat Addr map and its checkpoint listing, which is in
 * ascending key order whatever the table's insertion history, so that
 * a restored table re-saves byte-identically.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/rng.hh"
#include "zbp/util/flat_addr_map.hh"

namespace zbp
{
namespace
{

/** The checkpoint image of @p m alone, in one section. */
template <typename V>
std::vector<std::uint8_t>
imageOf(const FlatAddrMap<V> &m)
{
    ckpt::Writer w;
    w.beginSection(ckpt::tag::kHierarchy);
    FlatAddrMap<V>::state(m, w);
    w.endSection();
    w.finish();
    return w.bytes();
}

/** Restore @p bytes (an imageOf) into @p m. */
template <typename V>
void
restoreInto(FlatAddrMap<V> &m, const std::vector<std::uint8_t> &bytes)
{
    ckpt::Reader r(bytes.data(), bytes.size());
    r.beginSection(ckpt::tag::kHierarchy);
    FlatAddrMap<V>::state(m, r);
    r.endSection();
    r.finish();
}

/** The image a set holding exactly @p keys, listed in this order,
 * would have. */
std::vector<std::uint8_t>
listedImage(const std::vector<Addr> &keys)
{
    ckpt::Writer w;
    w.beginSection(ckpt::tag::kHierarchy);
    w.count64(keys.size());
    for (const Addr a : keys)
        w.u64(a);
    w.endSection();
    w.finish();
    return w.bytes();
}

TEST(FlatAddrMap, InsertKeepsAndAssignOverwrites)
{
    FlatAddrMap<Cycle> m;
    EXPECT_TRUE(m.insert(0x40, 1));
    EXPECT_FALSE(m.insert(0x40, 2));
    EXPECT_EQ(*m.find(0x40), 1u);
    m.assign(0x40, 3);
    EXPECT_EQ(*m.find(0x40), 3u);
    m.assign(0x80, 4);
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.find(0xC0), nullptr);
    for (Addr a = 0; a < 1000; ++a) // grows past its first capacity
        m.insert(a * 8 + 1, a);
    EXPECT_EQ(m.size(), 1002u);
    EXPECT_EQ(*m.find(999 * 8 + 1), 999u);
}

TEST(FlatAddrMap, NoValueMakesASet)
{
    FlatAddrMap<NoValue> set;
    EXPECT_TRUE(set.insert(0));
    EXPECT_FALSE(set.insert(0));
    EXPECT_NE(set.find(0), nullptr);
    EXPECT_EQ(set.find(8), nullptr);
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_EQ(set.find(0), nullptr);
}

TEST(FlatAddrMap, ListsInAscendingKeyOrder)
{
    // Two sets with the same members, filled in opposite orders (so
    // their slot layouts and growth histories differ), list the same
    // bytes: the members in ascending order.
    FlatAddrMap<NoValue> fwd;
    FlatAddrMap<NoValue> back;
    std::set<Addr> ref;
    Rng rng(3);
    std::vector<Addr> drawn;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.below(50000);
        ASSERT_EQ(fwd.insert(a), ref.insert(a).second) << "step " << i;
        drawn.push_back(a);
    }
    for (auto it = drawn.rbegin(); it != drawn.rend(); ++it)
        back.insert(*it);
    const std::vector<Addr> sorted(ref.begin(), ref.end());
    EXPECT_EQ(imageOf(fwd), listedImage(sorted));
    EXPECT_EQ(imageOf(back), listedImage(sorted));

    // A map lists each key with its value.
    FlatAddrMap<Cycle> m;
    m.assign(0x300, 7);
    m.assign(0x100, 9);
    ckpt::Writer w;
    w.beginSection(ckpt::tag::kHierarchy);
    w.count64(2);
    for (const std::uint64_t v : {0x100u, 9u, 0x300u, 7u})
        w.u64(v);
    w.endSection();
    w.finish();
    EXPECT_EQ(imageOf(m), w.bytes());
}

TEST(FlatAddrMap, RestoreRelistsIdentically)
{
    FlatAddrMap<Cycle> m;
    Rng rng(5);
    for (int i = 0; i < 3000; ++i)
        m.assign(16 * rng.below(4000), i);
    const auto bytes = imageOf(m);
    FlatAddrMap<Cycle> r;
    r.assign(8, 1); // replaced, not merged
    restoreInto(r, bytes);
    EXPECT_EQ(r.size(), m.size());
    EXPECT_EQ(imageOf(r), bytes);

    // The restored map goes on like the one it was listed from.
    for (int i = 0; i < 3000; ++i) {
        const Addr a = 16 * rng.below(8000);
        ASSERT_EQ(r.insert(a, i), m.insert(a, i)) << "step " << i;
    }
    EXPECT_EQ(imageOf(r), imageOf(m));
}

TEST(FlatAddrMap, RestoreRejectsAnUnsortedList)
{
    FlatAddrMap<NoValue> s;
    EXPECT_NO_THROW(restoreInto(s, listedImage({0x10, 0x20, 0x30})));
    EXPECT_EQ(s.size(), 3u);
    // Out of order, or a duplicate: a canonical list has neither.
    FlatAddrMap<NoValue> r;
    EXPECT_THROW(restoreInto(r, listedImage({0x10, 0x30, 0x20})),
                 ckpt::CkptError);
    EXPECT_THROW(restoreInto(r, listedImage({0x10, 0x10})),
                 ckpt::CkptError);
    EXPECT_THROW(restoreInto(r, listedImage({kNoAddr})), ckpt::CkptError);
}

} // namespace
} // namespace zbp
