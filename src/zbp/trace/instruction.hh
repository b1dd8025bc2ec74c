/**
 * @file
 * Dynamic instruction records — the unit of the trace-driven simulation.
 *
 * The methodology section of the paper drives a zEC12 performance model
 * with instruction traces of large commercial workloads.  We keep the
 * same abstraction: a trace is a sequence of retired instructions, each
 * with its address, length (z instructions are 2, 4 or 6 bytes), and for
 * branches the resolved direction and target.
 */

#ifndef ZBP_TRACE_INSTRUCTION_HH
#define ZBP_TRACE_INSTRUCTION_HH

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "zbp/common/log.hh"
#include "zbp/common/types.hh"

namespace zbp::trace
{

/** Static classification of an instruction. */
enum class InstKind : std::uint8_t
{
    kNonBranch = 0,   ///< any non-branching instruction
    kCondBranch,      ///< conditional relative branch (BRC/BRCL-like)
    kUncondBranch,    ///< unconditional relative branch (J/BRU-like)
    kCall,            ///< branch-and-link (BRAS/BRASL-like), always taken
    kReturn,          ///< branch-on-register return (BR R14-like)
    kIndirect,        ///< computed/indirect branch (BC via register/table)
};

/** True for any kind that can redirect sequential flow. */
constexpr bool
isBranch(InstKind k)
{
    return k != InstKind::kNonBranch;
}

/** True when static opcode-based logic would guess this branch taken
 * even without dynamic history (paper §3.1: surprise branches are
 * "guessed based on ... its opcode and other instruction text fields").
 * Unconditional relative branches, calls and returns statically guess
 * taken; conditional and indirect-via-table branches guess not-taken. */
constexpr bool
staticGuessTaken(InstKind k)
{
    return k == InstKind::kUncondBranch || k == InstKind::kCall ||
           k == InstKind::kReturn;
}

/** True for relative branches, whose target is known at decode: a
 * surprise guessed taken can redirect fetch there without waiting for
 * the resolve (returns and indirect branches cannot). */
constexpr bool
isDirectBranch(InstKind k)
{
    return k == InstKind::kCondBranch || k == InstKind::kUncondBranch ||
           k == InstKind::kCall;
}

/**
 * One retired instruction, 16 bytes.
 *
 * Word 0 is the instruction address.  Word 1 holds, from bit 0 up, one
 * 56-bit operand, then length (3 bits), kind (3 bits), taken (1 bit)
 * and a reserved zero bit.  The operand is the target of a branch or
 * the data address of a non-branch (no generated instruction has both);
 * all-ones encodes kNoAddr.  Set kind before the operand: target() and
 * dataAddr() read the one word by kind.  This is also the on-disk
 * record of trace format v4 (trace_io.hh); the asserts below pin it.
 */
struct Instruction
{
    /** The operand encoding of kNoAddr; every real operand is below. */
    static constexpr std::uint64_t kNoOperand = (std::uint64_t{1} << 56) - 1;

    Addr ia = 0; ///< instruction address

  private:
    std::uint64_t operand : 56 = kNoOperand;

  public:
    std::uint8_t length : 3 = 4; ///< 2, 4 or 6 bytes
    InstKind kind : 3 = InstKind::kNonBranch;
    bool taken : 1 = false;       ///< resolved direction (branches only)
    std::uint8_t reserved : 1 = 0; ///< always zero in a valid record

    constexpr bool branch() const { return isBranch(kind); }

    /** The operand as a branch target and as a data address: kNoAddr
     * when absent or when the instruction is of the other kind. */
    constexpr Addr target() const { return branch() ? addr() : kNoAddr; }
    constexpr Addr
    dataAddr() const
    {
        // One compare on word 1: with length and taken masked off, a
        // non-branch's word is its operand, below kNoOperand unless
        // absent, and any branch kind lifts it above.
        const std::uint64_t w =
                std::bit_cast<std::array<std::uint64_t, 2>>(*this)[1] &
                (kKindBits | kNoOperand);
        return w < kNoOperand ? w : kNoAddr;
    }

    constexpr void
    setTarget(Addr a)
    {
        ZBP_ASSERT(branch(), "a target on a non-branch instruction");
        setAddr(a);
    }

    constexpr void
    setDataAddr(Addr a)
    {
        ZBP_ASSERT(!branch(), "a data address on a branch instruction");
        setAddr(a);
    }

    /** Address of the next sequential instruction. */
    constexpr Addr fallThrough() const { return ia + length; }

    /** Address execution continues at after this instruction retires. */
    constexpr Addr
    nextIa() const
    {
        return (branch() && taken) ? target() : fallThrough();
    }

    constexpr bool operator==(const Instruction &) const = default;

  private:
    /** The kind field's bits in word 1. */
    static constexpr std::uint64_t kKindBits = std::uint64_t{7} << 59;

    constexpr Addr
    addr() const
    {
        return operand == kNoOperand ? kNoAddr : operand;
    }

    constexpr void
    setAddr(Addr a)
    {
        ZBP_ASSERT(a == kNoAddr || a < kNoOperand,
                   "operand ", a, " does not fit in 56 bits");
        operand = a == kNoAddr ? kNoOperand : a;
    }
};

// Trace format v4 maps file records as Instructions: pin the size and
// the bits (word 1 = taken << 62 | kind << 59 | length << 56 | operand)
// with a known record that round-trips through its two words.
static_assert(sizeof(Instruction) == 16 &&
              std::is_trivially_copyable_v<Instruction>);
static_assert([] {
    Instruction call; // a taken 6-byte call from 0x1000 to 0x2000
    call.ia = 0x1000;
    call.length = 6;
    call.kind = InstKind::kCall;
    call.taken = true;
    call.setTarget(0x2000);
    using Words = std::array<std::uint64_t, 2>;
    const Words w = std::bit_cast<Words>(call);
    return w == Words{0x1000, 1ull << 62 | 3ull << 59 | 6ull << 56 | 0x2000} &&
           std::bit_cast<Instruction>(w) == call;
}(), "Instruction bit layout changed (trace format v4)");

} // namespace zbp::trace

#endif // ZBP_TRACE_INSTRUCTION_HH
