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
 *
 * One field list per component: a component's persisted fields appear
 * once, in a `template <class Self, class Io> static void
 * state(Self &, Io &)` body that saveState(Writer &) and
 * restoreState(Reader &) both forward to.  Writer and Reader offer the
 * same inline field verbs — the scalars u8/u32/u64/flag, counter,
 * enum8 (an enum with its maximum), expect (a geometry or shape value
 * the restoring object must already have), check(cond, what), the
 * element counts count32/count64, the counted list list32, and part (a
 * sub-component's own sections).  On the Writer each verb
 * writes; on the Reader each reads and validates.  A body tests
 * Io::kReading only for restore-side work such as calling a setter.
 *
 * Reader bounds-checks every read, rejects any element count larger
 * than the bytes left in its section, and endSection() insists the
 * payload was consumed exactly, so *any* corruption is caught by the
 * CRC, the bounds checks, or a semantic validator (e.g. LRU
 * permutation checks).  Restore reads straight into the live object:
 * after a CkptError it is half-restored and must be discarded (the
 * runner rebuilds the job and re-runs it).
 */

#ifndef ZBP_CKPT_CKPT_HH
#define ZBP_CKPT_CKPT_HH

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "zbp/common/hash.hh"
#include "zbp/stats/stats.hh"

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

/** Bump when the section layout changes incompatibly.  Version 2 drops
 * the D-cache section and lists every address-keyed table in ascending
 * key order; a version-1 image is rejected like any corrupt one. */
inline constexpr std::uint32_t kFormatVersion = 2;

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

namespace detail
{

/** The element type a counted list carries: maps travel as (key, value)
 * pairs whose key a restore can write. */
template <class C>
struct ListElem
{
    using type =
            std::remove_cvref_t<decltype(*std::begin(std::declval<C &>()))>;
};

template <class C>
    requires requires { typename C::mapped_type; }
struct ListElem<C>
{
    using type = std::pair<typename C::key_type, typename C::mapped_type>;
};

} // namespace detail

/** Accumulates a snapshot into one byte buffer, one section at a time;
 * finish() trims the buffer to the image.  The field verbs mirror
 * Reader's one for one (file comment). */
class Writer
{
  public:
    /** False here, true on Reader: a state body branches on it (if
     * constexpr) only for restore-side work such as applying a value
     * through a setter. */
    static constexpr bool kReading = false;

    /** Open a section; every field until endSection() lands in its
     * payload.  Sections never nest. */
    void beginSection(std::uint32_t tag);

    /** Close the open section: back-patch the length, append the CRC. */
    void endSection();

    /** Append the terminal section.  The writer is complete after. */
    void finish();

    /** The image; complete once finish() has run. */
    const std::vector<std::uint8_t> &bytes() const { return buf; }

    // ---- field verbs ----------------------------------------------

    /** A scalar field, stored in exactly 1, 4 or 8 bytes. */
    template <class T> void u8(const T &v) { put(v, 1); }
    template <class T> void u32(const T &v) { put(v, 4); }
    template <class T> void u64(const T &v) { put(v, 8); }
    void flag(bool v) { put(v ? 1u : 0u, 1); }

    void counter(const stats::Counter &c) { put(c.value(), 8); }

    /** An enum stored in one byte; the reader range-checks it. */
    template <class E>
    void
    enum8(E v, E /*max*/, const char * /*what*/)
    {
        put(static_cast<std::uint8_t>(v), 1);
    }

    /** A geometry/shape value the restoring object must already have;
     * stored in sizeof(T) bytes (bool, u8, u32 or u64). */
    template <class T>
    void
    expect(T v, const char * /*what*/)
    {
        static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
        put(v, sizeof(T));
    }

    /** A semantic validation; only the reader acts on it. */
    void check(bool /*ok*/, const char * /*what*/) {}

    /** An element count (u32 or u64); returns @p n. */
    std::size_t count32(std::size_t n) { put(n, 4); return n; }
    std::size_t count64(std::size_t n) { put(n, 8); return n; }

    /** A counted list: the count, then @p field on every element in
     * @p c's iteration order. */
    template <class C, class F>
    void
    list32(const C &c, F field)
    {
        count32(c.size());
        for (const auto &e : c)
            field(e);
    }

    /** A component that writes its own section(s). */
    template <class T> void part(const T &c) { c.saveState(*this); }

  private:
    template <class T>
    void
    put(T v, unsigned n)
    {
        const auto x = static_cast<std::uint64_t>(v);
        if (buf.size() - len < 8)
            grow();
        std::uint8_t *p = buf.data() + len;
        for (unsigned i = 0; i < n; ++i)
            p[i] = static_cast<std::uint8_t>(x >> (8 * i));
        len += n;
    }

    /** Double the buffer (put() keeps at least 8 spare bytes). */
    void grow();

    std::vector<std::uint8_t> buf; ///< the first len bytes are written
    std::size_t len = 0;
    std::size_t payloadStart = 0; ///< first payload byte of open section
    bool inSection = false;
    bool finished = false;
};

/** Bounds-checked, CRC-verified reader over a snapshot byte image.
 * Every failure path throws CkptError; each field verb reads and
 * validates what the same Writer verb wrote. */
class Reader
{
  public:
    static constexpr bool kReading = true;

    /** @p data must outlive the reader.  Verifies magic + version. */
    Reader(const std::uint8_t *data, std::size_t n);

    /** Open the next section, which must carry @p tag; verifies its CRC
     * before any payload byte is handed out. */
    void beginSection(std::uint32_t tag);

    /** Close the open section; throws unless the payload was consumed
     * exactly. */
    void endSection();

    /** Consume the terminal section; throws on trailing garbage. */
    void finish();

    // ---- field verbs ----------------------------------------------

    template <class T> void u8(T &v) { v = static_cast<T>(take(1)); }
    template <class T> void u32(T &v) { v = static_cast<T>(take(4)); }
    template <class T> void u64(T &v) { v = static_cast<T>(take(8)); }
    void flag(bool &v) { v = take(1) != 0; }

    void
    counter(stats::Counter &c)
    {
        c.reset();
        c += take(8);
    }

    template <class E>
    void
    enum8(E &v, E max, const char *what)
    {
        const std::uint64_t raw = take(1);
        if (raw > static_cast<std::uint64_t>(max))
            fail(what, " out of range");
        v = static_cast<E>(raw);
    }

    template <class T>
    void
    expect(T v, const char *what)
    {
        if (take(sizeof(T)) != static_cast<std::uint64_t>(v))
            fail(what, " mismatch");
    }

    void
    check(bool ok, const char *what)
    {
        if (!ok)
            fail(what, "");
    }

    /** Every element takes at least one byte, so a count larger than
     * the bytes left in the section is corrupt: rejected here, before
     * anything is sized by it. */
    std::size_t count32(std::size_t) { return bounded(take(4)); }
    std::size_t count64(std::size_t) { return bounded(take(8)); }

    /** Replace @p c's contents with a counted list. */
    template <class C, class F>
    void
    list32(C &c, F field)
    {
        fill(c, count32(0), field);
    }

    template <class T> void part(T &c) { c.restoreState(*this); }

  private:
    void
    need(std::size_t n) const
    {
        const std::size_t limit = inSection ? payloadEnd : size;
        if (n > limit - pos)
            truncated();
    }

    std::uint64_t
    take(unsigned n)
    {
        need(n);
        std::uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v |= static_cast<std::uint64_t>(base[pos + i]) << (8 * i);
        pos += n;
        return v;
    }

    std::size_t
    bounded(std::uint64_t n) const
    {
        if (n > payloadEnd - pos)
            fail("element count", " exceeds the section");
        return static_cast<std::size_t>(n);
    }

    template <class C, class F>
    void
    fill(C &c, std::size_t n, F &field)
    {
        c.clear();
        if constexpr (requires { c.reserve(n); })
            c.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            typename detail::ListElem<C>::type e{};
            field(e);
            if constexpr (requires { typename C::mapped_type; })
                c.insert_or_assign(e.first, e.second);
            else
                c.push_back(e);
        }
    }

    [[noreturn]] void truncated() const;
    [[noreturn]] void fail(const char *what, const char *suffix) const;

    const std::uint8_t *base;
    std::size_t size;
    std::size_t pos = 0;
    std::size_t payloadEnd = 0; ///< one past the open section's payload
    std::uint32_t curTag = 0;   ///< the open section's tag
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
