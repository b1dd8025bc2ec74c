/**
 * @file
 * Tests for view-backed traces and the zero-copy mapped loader: copies
 * of a view must alias one storage, owned copies must not, and
 * mapTraceFile must round-trip bit-identically while rejecting corrupt
 * bytes as strictly as the streaming reader.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "zbp/trace/trace_io.hh"

namespace zbp::trace
{
namespace
{

Trace
sampleTrace()
{
    Trace t("sample");
    Addr ia = 0x4000;
    for (int i = 0; i < 64; ++i) {
        Instruction in;
        in.ia = ia;
        in.length = 4;
        if (i % 7 == 3) {
            in.kind = InstKind::kCondBranch;
            in.taken = (i % 2) == 0;
            in.setTarget(in.taken ? ia + 0x40 : ia + 4);
        } else if (i % 5 == 0) {
            in.setDataAddr(0x9000 + 8 * static_cast<Addr>(i));
        }
        t.push(in);
        ia = in.nextIa();
    }
    return t;
}

TEST(TraceView, AdoptViewSharesStorageAcrossCopies)
{
    const auto storage =
            std::make_shared<std::vector<Instruction>>(16);
    (*storage)[3].ia = 0xabc;
    Trace v = Trace::adoptView("v", storage->data(), storage->size(),
                               storage);
    EXPECT_FALSE(v.ownsStorage());
    EXPECT_EQ(v.size(), 16u);
    EXPECT_EQ(v.data(), storage->data());
    EXPECT_EQ(v[3].ia, 0xabcu);

    const Trace copy = v;        // NOLINT: aliasing is the point
    EXPECT_EQ(copy.data(), v.data());
    EXPECT_FALSE(copy.ownsStorage());

    Trace moved = std::move(v);
    EXPECT_EQ(moved.data(), storage->data());
    EXPECT_EQ(moved.size(), 16u);
}

TEST(TraceView, OwnedCopiesDoNotAlias)
{
    const Trace t = sampleTrace();
    const Trace copy = t;
    ASSERT_EQ(copy.size(), t.size());
    EXPECT_TRUE(copy.ownsStorage());
    EXPECT_NE(copy.data(), t.data());
}

TEST(TraceView, BorrowTraceAliasesWithoutOwnership)
{
    const Trace t = sampleTrace();
    const TraceHandle h = borrowTrace(t);
    EXPECT_EQ(h.get(), &t);
    EXPECT_EQ(h->data(), t.data());
}

TEST(TraceView, MapTraceFileRoundTripsBitIdentical)
{
    const Trace t = sampleTrace();
    const std::string path = testing::TempDir() + "map_roundtrip.zbpt";
    saveTraceFile(t, path);

    const Trace m = mapTraceFile(path);
    EXPECT_FALSE(m.ownsStorage());
    EXPECT_EQ(m.name(), t.name());
    ASSERT_EQ(m.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        ASSERT_EQ(m[i], t[i]) << "record " << i;

    // Copies of the mapped trace share the one mapping.
    const Trace share = m;
    EXPECT_EQ(share.data(), m.data());
    std::remove(path.c_str());
}

TEST(TraceView, MapTraceFileRejectsCorruptVersion)
{
    const std::string path = testing::TempDir() + "map_corrupt.zbpt";
    saveTraceFile(sampleTrace(), path);
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
        f.seekp(4); // version field follows the magic
        const char bad = 0x7f;
        f.write(&bad, 1);
    }
    EXPECT_THROW(mapTraceFile(path), TraceIoError);
    std::remove(path.c_str());
}

TEST(TraceView, MapTraceFileMissingPathIsOpenError)
{
    EXPECT_THROW(mapTraceFile(testing::TempDir() + "no_such.zbpt"),
                 TraceOpenError);
}

} // namespace
} // namespace zbp::trace
