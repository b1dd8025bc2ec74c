/**
 * @file
 * Round-trip, corruption and fuzz tests for the binary trace format.
 *
 * The reader's (mapTraceFile's) contract: a valid file round-trips
 * exactly; any corrupted, truncated or oversized input throws a
 * descriptive TraceIoError — it never crashes and never silently
 * returns a partial or altered trace.  Every case writes its bytes to
 * a scratch file and maps it.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "zbp/trace/trace_io.hh"

namespace zbp::trace
{
namespace
{

Trace
sampleTrace()
{
    Trace t("sample");
    Instruction a;
    a.ia = 0x1000;
    a.length = 4;
    t.push(a);
    Instruction b;
    b.ia = 0x1004;
    b.length = 2;
    b.kind = InstKind::kCondBranch;
    b.taken = true;
    b.setTarget(0x2000);
    t.push(b);
    Instruction c;
    c.ia = 0x2000;
    c.length = 6;
    c.kind = InstKind::kReturn;
    c.taken = true;
    c.setTarget(0x1006);
    t.push(c);
    return t;
}

std::string
serialized(const Trace &t)
{
    std::stringstream ss;
    writeTrace(t, ss);
    return ss.str();
}

/** A scratch file path of the running test's own (ctest runs tests in
 * parallel processes). */
std::string
scratchPath()
{
    return ::testing::TempDir() + "/zbp_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".zbpt";
}

/** Map @p bytes through a scratch file.  The returned view keeps the
 * mapping alive after the file is removed. */
Trace
mapped(const std::string &bytes)
{
    const std::string path = scratchPath();
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    struct Remove
    {
        const std::string &path;
        ~Remove() { std::remove(path.c_str()); }
    } cleanup{path};
    return mapTraceFile(path);
}

/** Map @p bytes, expecting a TraceIoError; returns its message. */
std::string
expectRejected(const std::string &bytes)
{
    try {
        (void)mapped(bytes);
    } catch (const TraceIoError &e) {
        return e.what();
    }
    ADD_FAILURE() << "corrupted input was accepted";
    return {};
}

TEST(TraceIo, RoundTrip)
{
    const Trace t = sampleTrace();
    const Trace back = mapped(serialized(t));
    EXPECT_EQ(back.name(), "sample");
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(back[i], t[i]) << "record " << i;
}

TEST(TraceIo, RoundTripEmptyTrace)
{
    const Trace back = mapped(serialized(Trace("nothing")));
    EXPECT_EQ(back.size(), 0u);
    EXPECT_EQ(back.name(), "nothing");
}

TEST(TraceIo, BadMagicRejected)
{
    std::string bytes = serialized(sampleTrace());
    bytes[0] = 'X';
    const std::string msg = expectRejected(bytes);
    EXPECT_NE(msg.find("magic"), std::string::npos) << msg;
}

TEST(TraceIo, BadVersionRejected)
{
    std::string bytes = serialized(sampleTrace());
    bytes[4] = static_cast<char>(kTraceVersion + 1);
    const std::string msg = expectRejected(bytes);
    EXPECT_NE(msg.find("version"), std::string::npos) << msg;
}

TEST(TraceIo, TruncationRejected)
{
    const std::string bytes = serialized(sampleTrace());
    const std::string msg =
            expectRejected(bytes.substr(0, bytes.size() - 5));
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
}

/** File offset of the first record of a v4 file named @p name: the
 * 24-byte header and the name, zero-padded to a 16-byte boundary. */
std::size_t
firstRecord(const std::string &name)
{
    return (24 + name.size() + 15) & ~std::size_t{15};
}

/** Byte offset, within a record, of the byte holding length (bits 0-2),
 * kind (bits 3-5), taken (bit 6) and the reserved bit (bit 7): the top
 * byte of the little-endian second word; ia and the 56-bit operand
 * fill bytes 0-14. */
constexpr std::size_t kMetaByte = 15;

TEST(TraceIo, GarbageKindRejected)
{
    // Kind 7 in the first record's meta byte.
    std::string bytes = serialized(sampleTrace());
    char &meta = bytes[firstRecord("sample") + kMetaByte];
    meta = static_cast<char>(meta | 0x38);
    const std::string msg = expectRejected(bytes);
    EXPECT_NE(msg.find("kind"), std::string::npos) << msg;
}

TEST(TraceIo, OversizedNameRejected)
{
    // A bit-flipped nameLen must not drive a giant allocation or a
    // bogus read; the reader caps it and reports the corrupt field.
    std::string bytes = serialized(sampleTrace());
    const std::uint32_t huge = 0x40000000;
    std::memcpy(&bytes[16], &huge, sizeof(huge));
    const std::string msg = expectRejected(bytes);
    EXPECT_NE(msg.find("name length"), std::string::npos) << msg;
}

TEST(TraceIo, OversizedCountRejected)
{
    // A count far beyond the actual payload must fail on truncation
    // (bounded reads), not allocate terabytes up front.
    std::string bytes = serialized(sampleTrace());
    const std::uint64_t huge = std::uint64_t{1} << 60;
    std::memcpy(&bytes[8], &huge, sizeof(huge));
    const std::string msg = expectRejected(bytes);
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
}

TEST(TraceIo, TrailingGarbageRejected)
{
    std::string bytes = serialized(sampleTrace());
    bytes += "extra";
    const std::string msg = expectRejected(bytes);
    EXPECT_NE(msg.find("trailing"), std::string::npos) << msg;
}

TEST(TraceIo, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/zbp_trace_io.zbpt";
    saveTraceFile(sampleTrace(), path);
    const Trace back = mapTraceFile(path);
    EXPECT_EQ(back.size(), 3u);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrowsOpenError)
{
    EXPECT_THROW((void)mapTraceFile("/nonexistent/dir/x.zbpt"),
                 TraceOpenError);
}

TEST(TraceIo, UnwritablePathThrowsOpenError)
{
    EXPECT_THROW(saveTraceFile(sampleTrace(), "/nonexistent/dir/x.zbpt"),
                 TraceOpenError);
}

// Fuzz-style sweeps: every single-bit flip and every truncation length
// of a valid file either parses to the identical trace (a flip in an
// address/target payload byte is indistinguishable from a different
// valid trace — those must still parse *fully*) or throws TraceIoError.
// Nothing may crash, hang, or return a partial trace.

TEST(TraceIo, EveryBitFlipEitherParsesFullyOrThrows)
{
    const Trace t = sampleTrace();
    const std::string bytes = serialized(t);
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        std::string mut = bytes;
        mut[bit / 8] = static_cast<char>(mut[bit / 8] ^ (1u << (bit % 8)));
        try {
            const Trace back = mapped(mut);
            // Accepted: must be a complete, well-formed trace of the
            // original shape (payload-byte flips only).
            EXPECT_EQ(back.size(), t.size())
                    << "bit " << bit << " produced a partial trace";
        } catch (const TraceIoError &e) {
            EXPECT_STRNE(e.what(), "") << "bit " << bit;
        }
    }
}

TEST(TraceIo, EveryTruncationLengthThrows)
{
    const std::string bytes = serialized(sampleTrace());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_THROW((void)mapped(bytes.substr(0, len)), TraceIoError)
                << "accepted a file cut to " << len << " bytes";
    }
}

/** @p t must come back unchanged through saveTraceFile and the
 * reader. */
void
expectRoundTrip(const Trace &t)
{
    const std::string path = scratchPath();
    saveTraceFile(t, path);
    const Trace back = mapTraceFile(path);
    std::remove(path.c_str());
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(back[i], t[i]) << "record " << i;
}

/** sampleTrace() serialized with the meta byte of record 1 (the taken
 * conditional branch) passed through @p edit. */
template <typename Edit>
std::string
withMetaByte(Edit edit)
{
    std::string bytes = serialized(sampleTrace());
    char &meta = bytes[firstRecord("sample") + 16 + kMetaByte];
    meta = static_cast<char>(edit(static_cast<std::uint8_t>(meta)));
    return bytes;
}

TEST(TraceIo, ExtremesRoundTripThroughBothReaders)
{
    constexpr Addr kTopOperand = (Addr{1} << 56) - 2;
    Trace t("extremes");
    Instruction high;
    high.ia = ~Addr{0} - 1; // 2^64 - 2
    high.setDataAddr(kTopOperand);
    t.push(high);
    Instruction far;
    far.kind = InstKind::kIndirect;
    far.taken = true;
    far.setTarget(kTopOperand);
    t.push(far);
    Instruction no_data; // kNoAddr on a non-branch
    t.push(no_data);
    Instruction no_target; // kNoAddr on a (not-taken) branch
    no_target.kind = InstKind::kCondBranch;
    t.push(no_target);
    EXPECT_EQ(t[0].dataAddr(), kTopOperand);
    EXPECT_EQ(t[1].target(), kTopOperand);
    EXPECT_EQ(t[2].dataAddr(), kNoAddr);
    EXPECT_EQ(t[3].target(), kNoAddr);
    expectRoundTrip(t);
}

TEST(TraceIo, EveryKindLengthAndTakenRoundTrips)
{
    Trace t("combos");
    Addr ia = 0x1000;
    for (unsigned k = 0; k <= static_cast<unsigned>(InstKind::kIndirect);
         ++k) {
        for (std::uint8_t len : {2, 4, 6}) {
            for (bool taken : {false, true}) {
                Instruction i;
                i.ia = ia;
                i.length = len;
                i.kind = static_cast<InstKind>(k);
                if (i.branch()) {
                    i.taken = taken;
                    if (taken)
                        i.setTarget(ia + 0x100);
                } else if (taken) {
                    i.setDataAddr(ia + 0x200); // "taken" = has data
                }
                t.push(i);
                ia += 0x10;
            }
        }
    }
    expectRoundTrip(t);
}

TEST(TraceIo, V3FileRejectedByBothReaders)
{
    // A v3 file: 24-byte header, the name padded to 32 bytes, then one
    // 32-byte record (ia, target, dataAddr, length, kind, taken, pad).
    std::string bytes(32 + 32, '\0');
    const std::uint32_t version = 3, name_len = 6;
    const std::uint64_t count = 1, ia = 0x1000, none = kNoAddr;
    std::memcpy(&bytes[0], kTraceMagic, 4);
    std::memcpy(&bytes[4], &version, 4);
    std::memcpy(&bytes[8], &count, 8);
    std::memcpy(&bytes[16], &name_len, 4);
    std::memcpy(&bytes[24], "sample", 6);
    std::memcpy(&bytes[32], &ia, 8);
    std::memcpy(&bytes[40], &none, 8);
    std::memcpy(&bytes[48], &none, 8);
    bytes[56] = 4;
    const std::string msg = expectRejected(bytes);
    EXPECT_NE(msg.find("unsupported version 3 (expected 4)"),
              std::string::npos) << msg;
}

TEST(TraceIo, ReservedBitRejectedByBothReaders)
{
    const std::string msg = expectRejected(
            withMetaByte([](std::uint8_t m) { return m | 0x80; }));
    EXPECT_NE(msg.find("record 1 (offset 48): nonzero reserved bit"),
              std::string::npos) << msg;
}

TEST(TraceIo, BadLengthCodeRejectedByBothReaders)
{
    for (std::uint8_t code : {0, 1, 3, 5, 7}) {
        const std::string msg = expectRejected(withMetaByte(
                [&](std::uint8_t m) { return (m & ~7u) | code; }));
        EXPECT_NE(msg.find("invalid instruction length " +
                           std::to_string(code)),
                  std::string::npos) << msg;
    }
}

TEST(TraceIo, KindSixRejectedByBothReaders)
{
    const std::string msg = expectRejected(withMetaByte(
            [](std::uint8_t m) { return (m & ~0x38u) | (6u << 3); }));
    EXPECT_NE(msg.find("invalid instruction kind 6"), std::string::npos)
            << msg;
}

TEST(TraceIo, TakenNonBranchRejectedByBothReaders)
{
    // Record 1 becomes a non-branch (kind 0) that keeps taken = 1.
    const std::string msg = expectRejected(
            withMetaByte([](std::uint8_t m) { return m & ~0x38u; }));
    EXPECT_NE(msg.find("non-branch marked taken"), std::string::npos)
            << msg;
}

TEST(TraceIo, TakenBranchWithoutTargetRejectedByBothReaders)
{
    // Record 1 (a taken branch) loses its target: an all-ones operand.
    std::string bytes = serialized(sampleTrace());
    std::memset(&bytes[firstRecord("sample") + 16 + 8], 0xFF, 7);
    const std::string msg = expectRejected(bytes);
    EXPECT_NE(msg.find("taken branch without a target"), std::string::npos)
            << msg;
}

} // namespace
} // namespace zbp::trace
