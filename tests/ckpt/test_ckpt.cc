/**
 * @file
 * Format-level tests for the checkpoint snapshot container: writer/
 * reader round-trips, CRC + bounds enforcement on every corruption
 * class (truncation, bit flips, wrong tags, trailing garbage, an older
 * format version), the CRC itself, the atomic file helpers, and the
 * snapshot path contract.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/rng.hh"

namespace zbp::ckpt
{
namespace
{

/** A small two-section snapshot exercising every scalar width. */
std::vector<std::uint8_t>
sampleSnapshot()
{
    Writer w;
    w.beginSection(tag::kBtb);
    w.u8(0x5A);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.flag(true);
    w.endSection();
    w.beginSection(tag::kCore);
    w.u64(42);
    w.endSection();
    w.finish();
    return w.bytes();
}

/** Consume sampleSnapshot() exactly; throws CkptError on any damage. */
void
readSample(const std::vector<std::uint8_t> &bytes)
{
    Reader r(bytes.data(), bytes.size());
    std::uint8_t a = 0;
    std::uint32_t b = 0;
    std::uint64_t c = 0;
    bool d = false;
    r.beginSection(tag::kBtb);
    r.u8(a);
    r.u32(b);
    r.u64(c);
    r.flag(d);
    if (a != 0x5A || b != 0xDEADBEEFu || c != 0x0123456789ABCDEFull || !d)
        throw CkptError("sample payload mismatch");
    r.endSection();
    r.beginSection(tag::kCore);
    r.u64(c);
    if (c != 42)
        throw CkptError("sample payload mismatch");
    r.endSection();
    r.finish();
}

TEST(CkptFormat, RoundTripAllScalarWidths)
{
    EXPECT_NO_THROW(readSample(sampleSnapshot()));
}

TEST(CkptFormat, WrongTagRejected)
{
    const auto bytes = sampleSnapshot();
    Reader r(bytes.data(), bytes.size());
    EXPECT_THROW(r.beginSection(tag::kPht), CkptError);
}

TEST(CkptFormat, UnderAndOverReadRejected)
{
    const auto bytes = sampleSnapshot();
    {
        // Under-consume: endSection must insist on exact consumption.
        Reader r(bytes.data(), bytes.size());
        std::uint8_t a = 0;
        r.beginSection(tag::kBtb);
        r.u8(a);
        EXPECT_THROW(r.endSection(), CkptError);
    }
    {
        // Over-read: the payload bound stops a runaway read.  The
        // section payload is 14 bytes, so the second u64 crosses it.
        Reader r(bytes.data(), bytes.size());
        std::uint64_t v = 0;
        r.beginSection(tag::kBtb);
        r.u64(v);
        EXPECT_THROW(r.u64(v), CkptError);
    }
}

TEST(CkptFormat, BadMagicAndVersionRejected)
{
    auto bytes = sampleSnapshot();
    auto bad = bytes;
    bad[0] ^= 0xFF;
    EXPECT_THROW(Reader(bad.data(), bad.size()), CkptError);
    bad = bytes;
    bad[4] ^= 0xFF; // format version
    EXPECT_THROW(Reader(bad.data(), bad.size()), CkptError);
}

TEST(CkptFormat, Version1ImageRejected)
{
    // Version 1 held a D-cache section and hash-ordered address lists;
    // version 2 held the fault-injection state.  Their images are
    // refused, never reinterpreted.
    const auto image = sampleSnapshot();
    ASSERT_EQ(image[4], kFormatVersion);
    for (const std::uint8_t old : {1, 2}) {
        SCOPED_TRACE(int{old});
        auto bytes = image;
        bytes[4] = old;
        try {
            Reader r(bytes.data(), bytes.size());
            ADD_FAILURE() << "a version-" << int{old}
                          << " image must be rejected";
        } catch (const CkptError &e) {
            EXPECT_NE(std::string(e.what()).find(
                              "format version " + std::to_string(old)),
                      std::string::npos)
                    << e.what();
        }
    }
}

TEST(CkptFormat, WriterImageHoldsNoSlack)
{
    // The writer grows its buffer in steps; the finished image, and a
    // snapshot captured from it, are exactly the written bytes.
    Writer w;
    w.beginSection(tag::kCore);
    for (std::uint64_t i = 0; i < 3000; ++i)
        w.u64(i);
    w.endSection();
    w.finish();
    const std::size_t image = 8 + (12 + 3000 * 8 + 4) + 16;
    EXPECT_EQ(w.bytes().size(), image);
    const SnapshotBuffer snap = SnapshotBuffer::capture(w);
    EXPECT_EQ(snap.sizeBytes(), image);
    EXPECT_EQ(snap.bytes().capacity(), image);
}

TEST(CkptFormat, EveryTruncationRejected)
{
    const auto bytes = sampleSnapshot();
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        SCOPED_TRACE(n);
        const std::vector<std::uint8_t> cut(
                bytes.begin(),
                bytes.begin() + static_cast<std::ptrdiff_t>(n));
        EXPECT_THROW(readSample(cut), CkptError);
    }
}

TEST(CkptFormat, EverySingleBitFlipRejected)
{
    const auto bytes = sampleSnapshot();
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            auto bad = bytes;
            bad[byte] ^= static_cast<std::uint8_t>(1u << bit);
            SCOPED_TRACE(byte * 8 + bit);
            EXPECT_THROW(readSample(bad), CkptError);
        }
    }
}

TEST(CkptFormat, TrailingGarbageRejected)
{
    auto bytes = sampleSnapshot();
    bytes.push_back(0x00);
    EXPECT_THROW(readSample(bytes), CkptError);
}

/** The CRC one byte at a time: the definition slice-by-8 must meet. */
std::uint32_t
crc32Bytewise(const std::uint8_t *p, std::size_t n)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(CkptCrc, MatchesTheStandardCheckValue)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(CkptCrc, SliceBy8MatchesBytewiseAtEveryAlignment)
{
    Rng rng(7);
    std::vector<std::uint8_t> buf(4096 + 8);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (std::size_t align = 0; align < 8; ++align)
        for (std::size_t n = 0; n <= 4096; ++n)
            ASSERT_EQ(crc32(buf.data() + align, n),
                      crc32Bytewise(buf.data() + align, n))
                    << "start " << align << ", length " << n;
}

TEST(CkptFile, SaveLoadRoundTripAndRemoval)
{
    const std::string path = ::testing::TempDir() + "/zbp_ckpt_rt.ckpt";
    std::remove(path.c_str());
    EXPECT_FALSE(ckptFileExists(path));
    EXPECT_THROW(loadCkptFile(path), CkptError);

    Writer w;
    w.beginSection(tag::kJob);
    w.u64(42);
    w.endSection();
    w.finish();
    ASSERT_TRUE(saveCkptFile(path, w));
    EXPECT_TRUE(ckptFileExists(path));

    const auto bytes = loadCkptFile(path);
    EXPECT_EQ(bytes, w.bytes());

    removeCkptFile(path);
    EXPECT_FALSE(ckptFileExists(path));
}

TEST(CkptEnv, PathForIsStableAndDistinguishesKeys)
{
    const std::string a = ckptPathFor("/ckpts", "cfg\x1ftrace\x1f" "1");
    const std::string b = ckptPathFor("/ckpts", "cfg\x1ftrace\x1f" "1");
    const std::string c = ckptPathFor("/ckpts", "cfg\x1ftrace\x1f" "2");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a.rfind("/ckpts/zbp-", 0), 0u) << a;
    EXPECT_NE(a.find(".ckpt"), std::string::npos) << a;
}

TEST(CkptEnv, PathForIsPinned)
{
    // Snapshot directories written earlier must keep resolving to the
    // same file names.
    EXPECT_EQ(ckptPathFor("/ckpts", "cfg\x1ftrace\x1f" "1"),
              "/ckpts/zbp-e214373577869499.ckpt");
    EXPECT_EQ(ckptPathFor("d/", ""), "d/zbp-14650fb0739d0383.ckpt");
    EXPECT_EQ(ckptPathFor("", "btb2\x1f" "cb84\x1f" "42\xff"),
              "zbp-935f6d278535ee8b.ckpt");
}

} // namespace
} // namespace zbp::ckpt
