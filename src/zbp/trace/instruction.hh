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

#include <cstdint>

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
 * One retired instruction.  Non-branches carry taken=false and
 * target=kNoAddr.  sizeof == 32 so multi-million instruction traces stay
 * cache- and memory-friendly.
 */
struct Instruction
{
    Addr ia = 0;             ///< instruction address
    Addr target = kNoAddr;   ///< resolved branch target (branches only)
    Addr dataAddr = kNoAddr; ///< operand address (kNoAddr: no access)
    std::uint8_t length = 4; ///< 2, 4 or 6 bytes
    InstKind kind = InstKind::kNonBranch;
    bool taken = false;      ///< resolved direction (branches only)

    bool branch() const { return isBranch(kind); }

    /** Address of the next sequential instruction. */
    Addr fallThrough() const { return ia + length; }

    /** Address execution continues at after this instruction retires. */
    Addr
    nextIa() const
    {
        return (branch() && taken) ? target : fallThrough();
    }

    bool
    operator==(const Instruction &o) const
    {
        return ia == o.ia && target == o.target &&
               dataAddr == o.dataAddr && length == o.length &&
               kind == o.kind && taken == o.taken;
    }
};

} // namespace zbp::trace

#endif // ZBP_TRACE_INSTRUCTION_HH
