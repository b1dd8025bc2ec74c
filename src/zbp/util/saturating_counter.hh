/**
 * @file
 * N-bit saturating up/down counter — the bimodal direction state kept in
 * every BTB entry (2 bits on zEC12) and in the PHT.
 */

#ifndef ZBP_UTIL_SATURATING_COUNTER_HH
#define ZBP_UTIL_SATURATING_COUNTER_HH

#include <cstdint>

#include "zbp/common/log.hh"

namespace zbp
{

/** A @p Bits-bit saturating counter.  Values [0, 2^Bits - 1]; the upper
 * half predicts taken. */
template <unsigned Bits>
class SaturatingCounter
{
    static_assert(Bits >= 1 && Bits <= 8, "counter width out of range");

  public:
    static constexpr std::uint8_t kMax = (1u << Bits) - 1;
    /** Weakly-taken initial state, matching the convention of installing
     * newly seen taken branches as weakly taken. */
    static constexpr std::uint8_t kWeakTaken = 1u << (Bits - 1);
    static constexpr std::uint8_t kWeakNotTaken = kWeakTaken - 1;

    constexpr SaturatingCounter() = default;

    constexpr explicit SaturatingCounter(std::uint8_t v) : val(v)
    {
        ZBP_ASSERT(v <= kMax, "counter init out of range");
    }

    /** Predicted direction: true = taken. */
    constexpr bool taken() const { return val >= kWeakTaken; }

    /** True when saturated at either rail (strong state). */
    constexpr bool strong() const { return val == 0 || val == kMax; }

    /** Train toward @p was_taken. */
    constexpr void
    update(bool was_taken)
    {
        if (was_taken) {
            if (val < kMax)
                ++val;
        } else {
            if (val > 0)
                --val;
        }
    }

    constexpr std::uint8_t raw() const { return val; }

    constexpr void
    set(std::uint8_t v)
    {
        ZBP_ASSERT(v <= kMax, "counter set out of range");
        val = v;
    }

    constexpr bool
    operator==(const SaturatingCounter &o) const
    {
        return val == o.val;
    }

    /** Checkpoint the raw state in one byte (ckpt.hh field verbs); a
     * restored state must be in range. */
    template <class Self, class Io>
    static void
    state(Self &s, Io &io)
    {
        io.u8(s.val);
        io.check(s.val <= kMax, "direction counter out of range");
    }

  private:
    std::uint8_t val = kWeakNotTaken;
};

/** The 2-bit bimodal BHT state stored per BTB entry on zEC12. */
using Bimodal2 = SaturatingCounter<2>;

} // namespace zbp

#endif // ZBP_UTIL_SATURATING_COUNTER_HH
