/**
 * @file
 * Tests for the flat Addr map and the std::unordered_set-ordered flat
 * set, whose listing order checkpoint images depend on.
 */

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "zbp/common/rng.hh"
#include "zbp/util/flat_addr_map.hh"

namespace zbp
{
namespace
{

std::vector<Addr>
listOf(const StdOrderAddrSet &s)
{
    std::vector<Addr> out;
    s.forEach([&out](Addr a) { out.push_back(a); });
    return out;
}

std::vector<Addr>
listOf(const std::unordered_set<Addr> &s)
{
    return std::vector<Addr>(s.begin(), s.end());
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

TEST(StdOrderAddrSet, ListsLikeStdUnorderedSet)
{
    StdOrderAddrSet s;
    std::unordered_set<Addr> ref;
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.below(50000);
        ASSERT_EQ(s.insert(a), ref.insert(a).second) << "step " << i;
        if (i % 5000 == 0) { // listing midway changes nothing
            ASSERT_EQ(listOf(s), listOf(ref)) << "step " << i;
        }
    }
    EXPECT_EQ(s.size(), ref.size());
    EXPECT_EQ(listOf(s), listOf(ref));
}

TEST(StdOrderAddrSet, RestoreRebuildsTheListedOrder)
{
    StdOrderAddrSet s;
    std::unordered_set<Addr> ref;
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
        const Addr a = 16 * rng.below(4000);
        s.insert(a);
        ref.insert(a);
    }
    const std::vector<Addr> listed = listOf(s);
    StdOrderAddrSet r;
    r.restore(listed);
    EXPECT_EQ(listOf(r), listed);

    // The restored set goes on like the one it was listed from, and a
    // second round trip changes nothing either.
    for (int i = 0; i < 3000; ++i) {
        const Addr a = 16 * rng.below(8000);
        ASSERT_EQ(r.insert(a), s.insert(a)) << "step " << i;
        ref.insert(a);
    }
    EXPECT_EQ(listOf(r), listOf(ref));
    EXPECT_EQ(listOf(s), listOf(ref));
    StdOrderAddrSet again;
    again.restore(listOf(r));
    EXPECT_EQ(listOf(again), listOf(ref));
}

} // namespace
} // namespace zbp
