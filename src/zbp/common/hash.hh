/**
 * @file
 * FNV-1a, the one byte-wise string hash.  It is stable across
 * processes and platforms, so what is derived from it (job seeds,
 * snapshot file names, checkpoint trace fingerprints) survives a
 * restart and matches records written earlier.
 */

#ifndef ZBP_COMMON_HASH_HH
#define ZBP_COMMON_HASH_HH

#include <cstdint>
#include <string_view>

namespace zbp
{

/** The standard 64-bit FNV offset basis. */
constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ull;

/** FNV-1a over the bytes of @p s, continuing from state @p h. */
constexpr std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = kFnv1aBasis)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace zbp

#endif // ZBP_COMMON_HASH_HH
