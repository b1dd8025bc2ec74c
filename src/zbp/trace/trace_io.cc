#include "zbp/trace/trace_io.hh"

#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace zbp::trace
{

namespace
{

struct FileHeader
{
    char magic[4];
    std::uint32_t version;
    std::uint64_t count;
    std::uint32_t nameLen;
    std::uint32_t pad;
};

/** File offset of the first record: header + name rounded up to the
 * record size, so mapped records are naturally aligned. */
constexpr std::uint64_t
recordBase(std::uint32_t name_len)
{
    const std::uint64_t raw = sizeof(FileHeader) + name_len;
    return (raw + sizeof(Instruction) - 1) & ~(sizeof(Instruction) - 1);
}

[[noreturn]] void
fail(const std::string &what)
{
    throw TraceIoError("trace file: " + what);
}

[[noreturn]] void
failAt(std::uint64_t record, std::uint64_t rec_base,
       const std::string &what)
{
    std::ostringstream msg;
    msg << "trace file: record " << record << " (offset "
        << (rec_base + record * sizeof(Instruction)) << "): " << what;
    throw TraceIoError(msg.str());
}

/** Header validation: magic, version, padding, name length. */
void
validateHeader(const FileHeader &h)
{
    if (std::memcmp(h.magic, kTraceMagic, 4) != 0)
        fail("bad magic (not a ZBPT trace file)");
    if (h.version != kTraceVersion)
        fail("unsupported version " + std::to_string(h.version) +
             " (expected " + std::to_string(kTraceVersion) + ")");
    if (h.pad != 0)
        fail("nonzero header padding (corrupted header)");
    if (h.nameLen > kMaxTraceNameLen)
        fail("trace name length " + std::to_string(h.nameLen) +
             " exceeds the " + std::to_string(kMaxTraceNameLen) +
             "-byte limit (corrupted header)");
}

/** Record validation.  The one-bit taken flag cannot hold anything
 * but 0 or 1. */
void
validateRecord(const Instruction &r, std::uint64_t i,
               std::uint64_t rec_base)
{
    if (r.length != 2 && r.length != 4 && r.length != 6)
        failAt(i, rec_base,
               "invalid instruction length " + std::to_string(r.length));
    if (r.kind > InstKind::kIndirect)
        failAt(i, rec_base,
               "invalid instruction kind " +
                       std::to_string(static_cast<unsigned>(r.kind)));
    if (r.reserved != 0)
        failAt(i, rec_base, "nonzero reserved bit (corrupted record)");
    if (!r.branch() && r.taken)
        failAt(i, rec_base, "non-branch marked taken");
    if (r.branch() && r.taken && r.target() == kNoAddr)
        failAt(i, rec_base, "taken branch without a target");
}

/** Owns one read-only file mapping; shared by every Trace viewing it. */
struct MappedFile
{
    MappedFile(void *b, std::size_t l) : base(b), len(l) {}
    ~MappedFile()
    {
        if (base != nullptr && len != 0)
            ::munmap(base, len);
    }
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    void *base;
    std::size_t len;
};

} // namespace

void
writeTrace(const Trace &t, std::ostream &os)
{
    FileHeader h{};
    std::memcpy(h.magic, kTraceMagic, 4);
    h.version = kTraceVersion;
    h.count = t.size();
    h.nameLen = static_cast<std::uint32_t>(t.name().size());
    h.pad = 0;
    if (t.name().size() > kMaxTraceNameLen)
        fail("trace name longer than " +
             std::to_string(kMaxTraceNameLen) + " bytes");
    os.write(reinterpret_cast<const char *>(&h), sizeof(h));
    os.write(t.name().data(), static_cast<std::streamsize>(h.nameLen));
    // Zero-fill up to the aligned record base.
    const char zeros[sizeof(Instruction)] = {};
    const std::uint64_t align_pad =
            recordBase(h.nameLen) - sizeof(FileHeader) - h.nameLen;
    os.write(zeros, static_cast<std::streamsize>(align_pad));
    // The record is the in-memory Instruction (layout pinned in
    // instruction.hh): one write for the whole array.
    os.write(reinterpret_cast<const char *>(t.data()),
             static_cast<std::streamsize>(t.size() * sizeof(Instruction)));
    if (!os)
        fail("write failed");
}

void
saveTraceFile(const Trace &t, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw TraceOpenError("cannot open trace file for writing: " +
                             path);
    writeTrace(t, os);
    os.flush();
    if (!os)
        throw TraceIoError("write to trace file failed: " + path);
}

Trace
mapTraceFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw TraceOpenError("cannot open trace file: " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw TraceOpenError("cannot stat trace file: " + path);
    }
    const std::size_t len = static_cast<std::size_t>(st.st_size);
    if (len < sizeof(FileHeader)) {
        ::close(fd);
        throw TraceIoError(path + ": trace file: truncated header (" +
                           std::to_string(len) + " of " +
                           std::to_string(sizeof(FileHeader)) + " bytes)");
    }
    void *base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping outlives the descriptor
    if (base == MAP_FAILED)
        throw TraceOpenError("cannot map trace file: " + path);
    auto mapping = std::make_shared<MappedFile>(base, len);

    try {
        const auto *bytes = static_cast<const unsigned char *>(base);
        FileHeader h{};
        std::memcpy(&h, bytes, sizeof(h));
        validateHeader(h);
        const std::uint64_t rec_base = recordBase(h.nameLen);
        if (len < rec_base)
            fail("truncated alignment padding");
        std::string name(reinterpret_cast<const char *>(bytes) +
                                 sizeof(FileHeader),
                         h.nameLen);
        for (std::uint64_t off = sizeof(FileHeader) + h.nameLen;
             off < rec_base; ++off)
            if (bytes[off] != 0)
                fail("nonzero alignment padding (corrupted file)");
        // Bounds: exactly count records, nothing more (the subtraction
        // is safe — len >= rec_base was checked above).
        const std::uint64_t payload = len - rec_base;
        if (payload % sizeof(Instruction) != 0 ||
            payload / sizeof(Instruction) != h.count) {
            if (payload / sizeof(Instruction) < h.count)
                failAt(payload / sizeof(Instruction), rec_base,
                       "truncated record (file claims " +
                               std::to_string(h.count) + " records)");
            fail("trailing bytes after the last record (truncated "
                 "count field or appended garbage)");
        }
        // The records are Instructions (layout pinned in
        // instruction.hh); expose them once every one is validated.
        const auto *data =
                reinterpret_cast<const Instruction *>(bytes + rec_base);
        for (std::uint64_t i = 0; i < h.count; ++i)
            validateRecord(data[i], i, rec_base);
        return Trace::adoptView(std::move(name), data, h.count,
                                std::move(mapping));
    } catch (const TraceIoError &e) {
        // `mapping` unmaps on unwind.
        throw TraceIoError(path + ": " + e.what());
    }
}

} // namespace zbp::trace
