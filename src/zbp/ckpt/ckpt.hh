/**
 * @file
 * Versioned, checksummed machine-state snapshots (the SimpleScalar
 * eio.c pattern): a crash-interrupted long run restarts from its latest
 * valid checkpoint instead of from scratch, and a truncated or
 * bit-flipped snapshot is *detected* — restore throws CkptError and the
 * caller falls back to a full re-run, never to wrong counters.
 *
 * Format (all integers little-endian, explicit widths — no raw struct
 * dumps, so snapshots are independent of the struct layout of the
 * build that wrote them):
 *
 *   file   := "ZBPC" u32(formatVersion) section* endSection
 *   section:= u32(tag) u64(payloadLen) payload u32(crc32(payload))
 *   endSection has tag kEndTag and an empty payload.
 *
 * Sections form a flat sequence in a fixed order: each component
 * serializes into exactly one section with its own tag, and the reader
 * demands the same tags in the same order (a mismatch means the file
 * was written by a different configuration or version — CkptError).
 * Every scalar inside a payload is written with an explicit put/get
 * call; Reader bounds-checks every read and closeSection() insists the
 * payload was consumed exactly, so *any* corruption is caught by the
 * CRC, the bounds checks, or a semantic validator (e.g. LRU
 * permutation checks) before partial state can leak into a run.
 */

#ifndef ZBP_CKPT_CKPT_HH
#define ZBP_CKPT_CKPT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "zbp/common/hash.hh"

namespace zbp::ckpt
{

/** Snapshot rejected: truncated, corrupt, wrong version, or written by
 * an incompatible configuration.  Callers catch this and fall back to a
 * from-scratch run. */
class CkptError : public std::runtime_error
{
  public:
    explicit CkptError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Bump when the section layout changes incompatibly. */
inline constexpr std::uint32_t kFormatVersion = 1;

/** Terminates the section sequence. */
inline constexpr std::uint32_t kEndTag = 0xFFFFFFFFu;

/** One tag per serializable component type.  Instances of the same
 * type are distinguished by their fixed position in the section
 * sequence (e.g. BTB1 then BTBP then BTB2), not by tag. */
namespace tag
{
inline constexpr std::uint32_t kBtb = 0x01;
inline constexpr std::uint32_t kPht = 0x02;
inline constexpr std::uint32_t kCtb = 0x03;
inline constexpr std::uint32_t kSurpriseBht = 0x04;
inline constexpr std::uint32_t kHistory = 0x05;
inline constexpr std::uint32_t kFit = 0x06;
inline constexpr std::uint32_t kSearchPipe = 0x07;
inline constexpr std::uint32_t kHierarchy = 0x08;
inline constexpr std::uint32_t kBtb2Engine = 0x09;
inline constexpr std::uint32_t kICache = 0x0A;
inline constexpr std::uint32_t kSharedL2I = 0x0B;
inline constexpr std::uint32_t kSot = 0x0C;
inline constexpr std::uint32_t kFault = 0x0D;
inline constexpr std::uint32_t kOutcomes = 0x0E;
inline constexpr std::uint32_t kCore = 0x0F;
inline constexpr std::uint32_t kArbiter = 0x10;
inline constexpr std::uint32_t kCmp = 0x11;
inline constexpr std::uint32_t kJob = 0x12;
inline constexpr std::uint32_t kGang = 0x13;
} // namespace tag

/** CRC-32 (IEEE 802.3, the zlib polynomial) over @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n);

/** Accumulates a snapshot into a byte vector, one section at a time. */
class Writer
{
  public:
    void
    putU8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putBytes(const void *data, std::size_t n);

    /** Open a section; every put until endSection() lands in its
     * payload.  Sections never nest. */
    void beginSection(std::uint32_t tag);

    /** Close the open section: back-patch the length, append the CRC. */
    void endSection();

    /** Append the terminal section.  The writer is complete after. */
    void finish();

    const std::vector<std::uint8_t> &bytes() const { return buf; }

  private:
    std::vector<std::uint8_t> buf;
    std::size_t payloadStart = 0; ///< first payload byte of open section
    bool inSection = false;
    bool finished = false;
};

/** Bounds-checked, CRC-verified reader over a snapshot byte image.
 * Every failure path throws CkptError. */
class Reader
{
  public:
    /** @p data must outlive the reader.  Verifies magic + version. */
    Reader(const std::uint8_t *data, std::size_t n);

    std::uint8_t getU8();
    std::uint32_t getU32();
    std::uint64_t getU64();
    bool getBool() { return getU8() != 0; }
    void getBytes(void *out, std::size_t n);

    /** Open the next section, which must carry @p tag; verifies its CRC
     * before any payload byte is handed out. */
    void openSection(std::uint32_t tag);

    /** Close the open section; throws unless the payload was consumed
     * exactly. */
    void closeSection();

    /** Consume the terminal section; throws on trailing garbage. */
    void finish();

  private:
    void need(std::size_t n) const;

    const std::uint8_t *base;
    std::size_t size;
    std::size_t pos = 0;
    std::size_t payloadEnd = 0; ///< one past the open section's payload
    bool inSection = false;
};

// ---- in-memory snapshots --------------------------------------------

/**
 * An in-memory snapshot image: byte-for-byte what saveCkptFile would
 * publish, but held in a buffer so a warm-up pass can fan snapshots out
 * to parallel interval jobs without touching the filesystem.  The image
 * is immutable once captured; any number of Readers can be opened over
 * it (restore does not consume the buffer).
 */
class SnapshotBuffer
{
  public:
    SnapshotBuffer() = default;

    /** Capture the image of @p w, which must be finish()ed. */
    static SnapshotBuffer
    capture(const Writer &w)
    {
        return SnapshotBuffer(w.bytes());
    }

    /** Adopt a raw image (e.g. from loadCkptFile); validity is judged
     * by the Reader, not here. */
    explicit SnapshotBuffer(std::vector<std::uint8_t> image)
        : buf(std::move(image))
    {}

    bool empty() const { return buf.empty(); }
    std::size_t sizeBytes() const { return buf.size(); }
    const std::vector<std::uint8_t> &bytes() const { return buf; }

    /** A reader over this image; the buffer must outlive it.  Throws
     * CkptError on a bad header, like any Reader. */
    Reader
    reader() const
    {
        return Reader(buf.data(), buf.size());
    }

    bool
    operator==(const SnapshotBuffer &o) const
    {
        return buf == o.buf;
    }

  private:
    std::vector<std::uint8_t> buf;
};

/** One row of a per-section snapshot comparison. */
struct SectionDiff
{
    enum class Kind
    {
        kMatch,   ///< same tag, same payload bytes
        kDiffers, ///< same tag, payload bytes differ
        kTagMismatch, ///< different tag at this position
        kOnlyA,   ///< section present only in the first snapshot
        kOnlyB,   ///< section present only in the second snapshot
    };

    std::size_t index = 0;    ///< position in the section sequence
    std::uint32_t tagA = 0;   ///< kEndTag when absent in A
    std::uint32_t tagB = 0;   ///< kEndTag when absent in B
    Kind kind = Kind::kMatch;
    std::size_t lenA = 0;     ///< payload bytes in A
    std::size_t lenB = 0;     ///< payload bytes in B
    std::size_t firstByteDiff = 0; ///< payload offset of first mismatch
};

/** Human-readable name for a section tag ("core", "btb", ...); hex for
 * unknown tags. */
std::string tagName(std::uint32_t tag);

/**
 * Structural comparison of two snapshot images: walk both section
 * sequences in parallel and report, per position, whether the payloads
 * match byte for byte.  This is the debugging surface behind the
 * byte-identity tests — a mismatch names the component (tag) instead of
 * "images differ".  Throws CkptError when either image has a bad
 * header or a truncated section frame.
 */
std::vector<SectionDiff> diffSnapshots(const SnapshotBuffer &a,
                                       const SnapshotBuffer &b);

/** One-line-per-mismatch rendering of diffSnapshots (empty string when
 * the images are identical). */
std::string diffSummary(const SnapshotBuffer &a, const SnapshotBuffer &b);

// ---- snapshot files -------------------------------------------------

/** Durably publish @p w (which must be finish()ed) at @p path via the
 * same-directory tmp + fsync + rename helper.  Returns false, warned,
 * on I/O failure — a checkpoint that fails to publish never aborts the
 * run it was meant to protect. */
bool saveCkptFile(const std::string &path, const Writer &w);

/** Load a snapshot image; throws CkptError when the file is absent,
 * unreadable, or shorter than the header. */
std::vector<std::uint8_t> loadCkptFile(const std::string &path);

/** True when a snapshot file exists at @p path (readability/validity
 * are judged by loadCkptFile + the Reader, not here). */
bool ckptFileExists(const std::string &path);

/** Best-effort removal of a consumed snapshot (job completed: the file
 * is stale and must not satisfy a future resume). */
void removeCkptFile(const std::string &path);

// ---- runner environment contract ------------------------------------

/** ZBP_CKPT_INTERVAL: instructions between snapshots; 0 = checkpointing
 * off (the default — no checkpoint object is ever constructed). */
std::uint64_t ckptIntervalFromEnv();

/** ZBP_CKPT_DIR: directory for snapshot files; empty = off. */
std::string ckptDirFromEnv();

/** Stable hash of a name inside the checkpoint contract (snapshot file
 * names, the trace fingerprint of a core section): FNV-1a from the
 * basis these were first written with, the standard one missing its
 * last digit.  Fixed so existing snapshots stay valid. */
constexpr std::uint64_t
nameHash(std::string_view s)
{
    return fnv1a(s, 1469598103934665603ull);
}

/** Snapshot path for one resume identity: ZBP_CKPT_DIR/zbp-<hash>.ckpt
 * (nameHash over the key, so the name is stable across processes). */
std::string ckptPathFor(const std::string &dir, const std::string &key);

} // namespace zbp::ckpt

#endif // ZBP_CKPT_CKPT_HH
