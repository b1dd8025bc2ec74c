/**
 * @file
 * Binary trace serialization.
 *
 * Format "ZBPT" v4: a fixed little-endian header, the trace name, zero
 * padding up to the next 16-byte file offset, then one 16-byte record
 * per instruction.  A record is the in-memory trace::Instruction (an
 * address word and a word packing one operand with length, kind and
 * taken; instruction.hh pins its bits), so a memory-mapped file exposes
 * its record array directly — no copy, no misaligned access — which is
 * what the trace cache and the fused sweep path rely on to share one
 * physical copy of a trace across processes and configurations.
 *
 * Robustness contract: trace files are external input.  The one
 * reader, mapTraceFile, validates the header (magic, version, zeroed
 * padding), bounds the record array by the file size (a truncated or
 * bit-flipped file can never make it read past the mapping or return a
 * silently partial trace), checks every record's fields, and rejects
 * trailing garbage, all before it hands out a view.  Every failure
 * surfaces as TraceIoError with a positional message; nothing here
 * aborts or invokes UB.
 */

#ifndef ZBP_TRACE_TRACE_IO_HH
#define ZBP_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "zbp/trace/trace.hh"

namespace zbp::trace
{

/** Magic bytes at the start of every trace file. */
inline constexpr char kTraceMagic[4] = {'Z', 'B', 'P', 'T'};
/** v4 halved the record to 16 bytes (one operand word); older versions
 * are rejected, not converted. */
inline constexpr std::uint32_t kTraceVersion = 4;

/** Longest trace name the reader accepts (the header's nameLen field
 * is attacker-controlled; a corrupted length must not drive a huge
 * allocation). */
inline constexpr std::uint32_t kMaxTraceNameLen = 4096;

/** Any trace (de)serialization failure: bad magic, wrong version,
 * truncation, corrupted fields, write errors. */
class TraceIoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The file could not be opened at all (missing path, permissions) —
 * distinct from corruption: the trace cache counts an unopenable file
 * as a plain miss and a corrupt one as an invalid entry. */
class TraceOpenError : public TraceIoError
{
  public:
    using TraceIoError::TraceIoError;
};

/** Serialize @p t to @p os.  Throws TraceIoError on a write failure. */
void writeTrace(const Trace &t, std::ostream &os);

/** Write @p t to the file @p path.  Throws TraceOpenError if the file
 * cannot be opened, TraceIoError on a write failure. */
void saveTraceFile(const Trace &t, const std::string &path);

/**
 * Zero-copy load: memory-map @p path read-only and return a view-backed
 * Trace whose instruction array *is* the mapped record array (the
 * on-disk record is trace::Instruction, and the 16-byte aligned record
 * base keeps every record naturally aligned).  The mapping is shared
 * copy-on-write with the page cache, so concurrent jobs loading the
 * same file consume one physical copy; it is released when the last
 * Trace sharing the view is destroyed.
 *
 * Throws TraceOpenError when the file cannot be opened or mapped, and
 * TraceIoError (naming the path and the offending offset or field) on
 * bad magic or version, nonzero padding, truncation, out-of-range
 * record fields, or trailing bytes after the last record.
 */
Trace mapTraceFile(const std::string &path);

} // namespace zbp::trace

#endif // ZBP_TRACE_TRACE_IO_HH
