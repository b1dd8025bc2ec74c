/**
 * @file
 * Surprise-branch direction guessing.
 *
 * "Any branch not predicted by the first level predictor is called a
 * surprise branch and its direction (taken or not-taken) is guessed
 * based on a tagless 32k entry one-bit BHT, its opcode and other
 * instruction text fields." (paper §3.1)
 *
 * Unconditional kinds (jumps, calls, returns) statically guess taken;
 * conditional branches consult the one-bit tagless BHT, which is trained
 * on every resolved conditional branch.
 */

#ifndef ZBP_DIR_SURPRISE_BHT_HH
#define ZBP_DIR_SURPRISE_BHT_HH

#include <cstdint>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/bitfield.hh"
#include "zbp/common/types.hh"
#include "zbp/stats/stats.hh"
#include "zbp/trace/instruction.hh"

namespace zbp::dir
{

/** Tagless one-bit branch history table + static opcode rules. */
class SurpriseBht
{
  public:
    explicit SurpriseBht(std::uint32_t entries = 32 * 1024)
        : bits(entries, false)
    {
        ZBP_ASSERT(isPowerOf2(entries), "BHT entries must be pow2");
    }

    /** Guess the direction of a surprise branch of kind @p k at @p ia. */
    bool
    guessTaken(Addr ia, trace::InstKind k) const
    {
        if (trace::staticGuessTaken(k))
            return true;
        if (k == trace::InstKind::kIndirect)
            return true; // computed branches overwhelmingly resolve taken
        return bits[index(ia)];
    }

    /** Train on a resolved conditional branch. */
    void
    update(Addr ia, trace::InstKind k, bool taken)
    {
        if (k == trace::InstKind::kCondBranch)
            bits[index(ia)] = taken;
    }

    void
    reset()
    {
        bits.assign(bits.size(), false);
    }

    std::size_t size() const { return bits.size(); }

    /** Serialize into one checkpoint section (8 bits per byte). */
    void saveState(ckpt::Writer &w) const { state(*this, w); }

    /** Overwrite from a checkpoint section; throws CkptError on a size
     * mismatch. */
    void restoreState(ckpt::Reader &r) { state(*this, r); }

  private:
    /** The checkpointed fields, for saveState and restoreState. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        io.beginSection(ckpt::tag::kSurpriseBht);
        const std::size_t n = s.bits.size();
        io.expect(static_cast<std::uint32_t>(n), "surprise BHT size");
        for (std::size_t i = 0; i < n; i += 8) {
            std::uint8_t acc = 0;
            for (std::size_t b = 0; b < 8 && i + b < n; ++b)
                acc |= static_cast<std::uint8_t>(s.bits[i + b] << b);
            io.u8(acc);
            if constexpr (Io::kReading)
                for (std::size_t b = 0; b < 8 && i + b < n; ++b)
                    s.bits[i + b] = ((acc >> b) & 1u) != 0;
        }
        io.endSection();
    }

    std::size_t
    index(Addr ia) const
    {
        // Instructions are 2-byte aligned; fold upper bits in so large
        // footprints spread across the table.
        const Addr x = ia >> 1;
        return (x ^ (x >> 15)) & (bits.size() - 1);
    }

    std::vector<bool> bits;
};

} // namespace zbp::dir

#endif // ZBP_DIR_SURPRISE_BHT_HH
