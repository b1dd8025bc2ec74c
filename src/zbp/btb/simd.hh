/**
 * @file
 * The way-compare kernel for the SoA BTB key plane.
 *
 * A SetAssocBtb row's search-relevant state is one 64-byte line of
 * kMaxBtbWays packed 64-bit keys (valid bit | tag); matching a search
 * address against a row reduces to comparing one key word against the
 * row's lanes.  matchWays is a plain portable loop bounded by the
 * configured ways: vector kernels bought ~3% on the full Fig. 2 sweep,
 * inside its run-to-run noise (DESIGN.md §7).
 */

#ifndef ZBP_BTB_SIMD_HH
#define ZBP_BTB_SIMD_HH

#include <cstdint>

namespace zbp::btb::simd
{

/**
 * Per-way match mask over one padded key row: bit w set iff
 * keys[w] == key, for w < @p ways.  This is the single entry point the
 * BTB row access primitives use.
 */
inline std::uint32_t
matchWays(const std::uint64_t *keys, std::uint64_t key, std::uint32_t ways)
{
    std::uint32_t m = 0;
    for (std::uint32_t w = 0; w < ways; ++w)
        m |= static_cast<std::uint32_t>(keys[w] == key) << w;
    return m;
}

/** Portable read-prefetch hint (no-op where unsupported). */
inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 3);
#else
    (void)p;
#endif
}

} // namespace zbp::btb::simd

#endif // ZBP_BTB_SIMD_HH
