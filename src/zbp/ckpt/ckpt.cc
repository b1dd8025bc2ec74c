/**
 * @file
 * Snapshot byte-stream implementation: CRC table, sectioned writer and
 * reader and durable file publish.
 */

#include "zbp/ckpt/ckpt.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "zbp/common/log.hh"
#include "zbp/util/atomic_file.hh"

namespace zbp::ckpt
{

namespace
{

constexpr char kMagic[4] = {'Z', 'B', 'P', 'C'};

/** The file header: magic, then the format version. */
void
putHeader(Writer &w)
{
    for (const char c : kMagic)
        w.u8(c);
    w.u32(kFormatVersion);
}

/** Slice-by-8 tables: t[0] is the bytewise table, and t[k][b] is the
 * CRC of byte b followed by k zero bytes. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    return t;
}

const CrcTables &
crcTables()
{
    static const CrcTables t = makeCrcTables();
    return t;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    const CrcTables &t = crcTables();
    std::uint32_t c = 0xFFFFFFFFu;
    // Eight bytes per step: the low four fold into the running CRC, and
    // each byte's table entry advances it past the bytes after it.
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo =
                c ^ (static_cast<std::uint32_t>(p[0]) |
                     static_cast<std::uint32_t>(p[1]) << 8 |
                     static_cast<std::uint32_t>(p[2]) << 16 |
                     static_cast<std::uint32_t>(p[3]) << 24);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ---- Writer ---------------------------------------------------------

void
Writer::grow()
{
    buf.resize(std::max<std::size_t>(2 * buf.size(), 4096));
}

void
Writer::beginSection(std::uint32_t tag)
{
    ZBP_ASSERT(!inSection && !finished, "ckpt writer section misuse");
    if (len == 0)
        putHeader(*this);
    u32(tag);
    u64(0); // length back-patched by endSection()
    payloadStart = len;
    inSection = true;
}

void
Writer::endSection()
{
    ZBP_ASSERT(inSection, "ckpt writer: endSection without beginSection");
    const std::uint64_t n = len - payloadStart;
    for (int i = 0; i < 8; ++i)
        buf[payloadStart - 8 + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(n >> (8 * i));
    u32(crc32(buf.data() + payloadStart, static_cast<std::size_t>(n)));
    inSection = false;
}

void
Writer::finish()
{
    ZBP_ASSERT(!inSection && !finished, "ckpt writer finish misuse");
    if (len == 0)
        putHeader(*this);
    u32(kEndTag);
    u64(0);
    u32(crc32(nullptr, 0));
    buf.resize(len);
    finished = true;
}

// ---- Reader ---------------------------------------------------------

Reader::Reader(const std::uint8_t *data, std::size_t n) : base(data), size(n)
{
    if (n < sizeof(kMagic) + 4)
        throw CkptError("checkpoint truncated: no header");
    if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
        throw CkptError("checkpoint: bad magic");
    pos = sizeof(kMagic);
    const std::uint64_t ver = take(4);
    if (ver != kFormatVersion)
        throw CkptError("checkpoint: format version " + std::to_string(ver) +
                        " != supported " + std::to_string(kFormatVersion));
}

void
Reader::truncated() const
{
    throw CkptError("checkpoint truncated: read past " +
                    std::string(inSection ? "section payload" : "file"));
}

void
Reader::fail(const char *what, const char *suffix) const
{
    throw CkptError("checkpoint section " + tagName(curTag) + ": " + what +
                    suffix);
}

void
Reader::beginSection(std::uint32_t tag)
{
    ZBP_ASSERT(!inSection, "ckpt reader: nested section");
    const std::uint64_t got = take(4);
    if (got != tag)
        throw CkptError("checkpoint: expected section tag " +
                        std::to_string(tag) + ", found " +
                        std::to_string(got));
    const std::uint64_t len = take(8);
    if (len > size - pos || pos + len + 4 > size)
        throw CkptError("checkpoint truncated: section payload");
    const std::uint32_t want =
            static_cast<std::uint32_t>(base[pos + len]) |
            static_cast<std::uint32_t>(base[pos + len + 1]) << 8 |
            static_cast<std::uint32_t>(base[pos + len + 2]) << 16 |
            static_cast<std::uint32_t>(base[pos + len + 3]) << 24;
    if (crc32(base + pos, static_cast<std::size_t>(len)) != want)
        throw CkptError("checkpoint: section " + std::to_string(tag) +
                        " CRC mismatch");
    payloadEnd = pos + static_cast<std::size_t>(len);
    curTag = tag;
    inSection = true;
}

void
Reader::endSection()
{
    ZBP_ASSERT(inSection, "ckpt reader: endSection without begin");
    if (pos != payloadEnd)
        throw CkptError("checkpoint: section payload not fully consumed (" +
                        std::to_string(payloadEnd - pos) + " bytes left)");
    inSection = false;
    pos += 4; // skip the CRC already verified by beginSection()
}

void
Reader::finish()
{
    beginSection(kEndTag);
    endSection();
    if (pos != size)
        throw CkptError("checkpoint: trailing bytes after end section");
}

// ---- in-memory snapshots --------------------------------------------

std::string
tagName(std::uint32_t t)
{
    switch (t) {
    case tag::kBtb: return "btb";
    case tag::kPht: return "pht";
    case tag::kCtb: return "ctb";
    case tag::kSurpriseBht: return "surprise-bht";
    case tag::kHistory: return "history";
    case tag::kFit: return "fit";
    case tag::kSearchPipe: return "search-pipe";
    case tag::kHierarchy: return "hierarchy";
    case tag::kBtb2Engine: return "btb2-engine";
    case tag::kICache: return "icache";
    case tag::kSharedL2I: return "shared-l2i";
    case tag::kSot: return "sot";
    case tag::kFault: return "fault";
    case tag::kOutcomes: return "outcomes";
    case tag::kCore: return "core";
    case tag::kArbiter: return "arbiter";
    case tag::kCmp: return "cmp";
    case tag::kJob: return "job";
    case tag::kGang: return "gang";
    case kEndTag: return "(end)";
    default: break;
    }
    char hex[16];
    std::snprintf(hex, sizeof(hex), "0x%02X", t);
    return hex;
}

namespace
{

/** One raw section frame: tag + payload span inside an image. */
struct RawSection
{
    std::uint32_t tag;
    const std::uint8_t *payload;
    std::size_t len;
};

std::uint32_t
peekU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
peekU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Walk the frame structure of a snapshot image (header + tag/len/crc
 * framing only — payload contents and CRCs are not validated here; the
 * diff compares payload bytes directly). */
std::vector<RawSection>
walkSections(const SnapshotBuffer &snap)
{
    const std::uint8_t *p = snap.bytes().data();
    const std::size_t n = snap.sizeBytes();
    if (n < sizeof(kMagic) + 4)
        throw CkptError("snapshot diff: image truncated, no header");
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0)
        throw CkptError("snapshot diff: bad magic");
    std::size_t pos = sizeof(kMagic) + 4;
    std::vector<RawSection> out;
    while (pos < n) {
        if (pos + 12 > n)
            throw CkptError("snapshot diff: truncated section header");
        const std::uint32_t t = peekU32(p + pos);
        const std::uint64_t len = peekU64(p + pos + 4);
        pos += 12;
        if (len > n - pos || pos + len + 4 > n)
            throw CkptError("snapshot diff: truncated section payload");
        if (t == kEndTag)
            break;
        out.push_back({t, p + pos, static_cast<std::size_t>(len)});
        pos += static_cast<std::size_t>(len) + 4;
    }
    return out;
}

} // namespace

std::vector<SectionDiff>
diffSnapshots(const SnapshotBuffer &a, const SnapshotBuffer &b)
{
    const std::vector<RawSection> sa = walkSections(a);
    const std::vector<RawSection> sb = walkSections(b);
    std::vector<SectionDiff> out;
    const std::size_t n = sa.size() > sb.size() ? sa.size() : sb.size();
    for (std::size_t i = 0; i < n; ++i) {
        SectionDiff d;
        d.index = i;
        if (i >= sb.size()) {
            d.kind = SectionDiff::Kind::kOnlyA;
            d.tagA = sa[i].tag;
            d.tagB = kEndTag;
            d.lenA = sa[i].len;
        } else if (i >= sa.size()) {
            d.kind = SectionDiff::Kind::kOnlyB;
            d.tagA = kEndTag;
            d.tagB = sb[i].tag;
            d.lenB = sb[i].len;
        } else {
            d.tagA = sa[i].tag;
            d.tagB = sb[i].tag;
            d.lenA = sa[i].len;
            d.lenB = sb[i].len;
            if (sa[i].tag != sb[i].tag) {
                d.kind = SectionDiff::Kind::kTagMismatch;
            } else if (sa[i].len == sb[i].len &&
                       std::memcmp(sa[i].payload, sb[i].payload,
                                   sa[i].len) == 0) {
                d.kind = SectionDiff::Kind::kMatch;
            } else {
                d.kind = SectionDiff::Kind::kDiffers;
                const std::size_t m =
                        sa[i].len < sb[i].len ? sa[i].len : sb[i].len;
                std::size_t off = 0;
                while (off < m && sa[i].payload[off] == sb[i].payload[off])
                    ++off;
                d.firstByteDiff = off;
            }
        }
        out.push_back(d);
    }
    return out;
}

std::string
diffSummary(const SnapshotBuffer &a, const SnapshotBuffer &b)
{
    std::string s;
    for (const SectionDiff &d : diffSnapshots(a, b)) {
        if (d.kind == SectionDiff::Kind::kMatch)
            continue;
        s += "  section[" + std::to_string(d.index) + "] ";
        switch (d.kind) {
        case SectionDiff::Kind::kDiffers:
            s += tagName(d.tagA) + ": payloads differ (" +
                 std::to_string(d.lenA) + " vs " + std::to_string(d.lenB) +
                 " bytes, first mismatch at offset " +
                 std::to_string(d.firstByteDiff) + ")";
            break;
        case SectionDiff::Kind::kTagMismatch:
            s += "tag mismatch: " + tagName(d.tagA) + " vs " +
                 tagName(d.tagB);
            break;
        case SectionDiff::Kind::kOnlyA:
            s += tagName(d.tagA) + ": only in first image";
            break;
        case SectionDiff::Kind::kOnlyB:
            s += tagName(d.tagB) + ": only in second image";
            break;
        case SectionDiff::Kind::kMatch:
            break;
        }
        s += "\n";
    }
    return s;
}

// ---- snapshot files -------------------------------------------------

bool
saveCkptFile(const std::string &path, const Writer &w)
{
    return writeFileAtomic(path, w.bytes().data(), w.bytes().size());
}

std::vector<std::uint8_t>
loadCkptFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw CkptError("checkpoint: cannot open " + path + ": " +
                        std::strerror(errno));
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        buf.insert(buf.end(), chunk, chunk + got);
    const bool readError = std::ferror(f) != 0;
    std::fclose(f);
    if (readError)
        throw CkptError("checkpoint: read error on " + path);
    return buf;
}

bool
ckptFileExists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    std::fclose(f);
    return true;
}

void
removeCkptFile(const std::string &path)
{
    std::remove(path.c_str());
}

std::string
ckptPathFor(const std::string &dir, const std::string &key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(nameHash(key)));
    std::string p = dir;
    if (!p.empty() && p.back() != '/')
        p += '/';
    p += "zbp-";
    p += hex;
    p += ".ckpt";
    return p;
}

} // namespace zbp::ckpt
