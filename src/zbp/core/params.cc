/**
 * @file
 * MachineParams::validate() — the configuration boundary check.
 *
 * Every table constructor in the model guards its own geometry with
 * ZBP_ASSERT, which aborts the process; a sweep over user-supplied
 * configurations (machine.cfg files, JSONL-driven reruns) must instead
 * get a catchable, descriptive error before any structure is built.
 */

#include "zbp/core/params.hh"

#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace zbp::core
{

namespace
{

[[noreturn]] void
reject(const std::string &what)
{
    throw std::invalid_argument("bad machine configuration: " + what);
}

/** Enforces each field's FieldRule as fields() visits it. */
struct RuleCheck
{
    bool sharedL2i;

    template <class T>
    void
    operator()(std::string_view key, const T &v, FieldRule r = {}) const
    {
        if (r.kind == FieldRule::kAny ||
            (!sharedL2i && key.starts_with("cmp.l2i.")))
            return;
        const auto fail = [key](const std::string &what) {
            reject(std::string(key) + " must be " + what);
        };
        if constexpr (std::is_same_v<T, double>) {
            if (!(v >= 0.0 && v <= 1.0))
                fail("a probability in [0, 1], got " + std::to_string(v));
        } else if constexpr (std::is_same_v<T, std::uint32_t>) {
            if (r.kind == FieldRule::kNonZero && v == 0)
                fail("non-zero");
            if (r.kind == FieldRule::kPow2 && !isPowerOf2(v))
                fail("a non-zero power of two, got " + std::to_string(v));
            if (r.kind == FieldRule::kRange && (v < r.lo || v > r.hi))
                fail("in [" + std::to_string(r.lo) + ", " +
                     std::to_string(r.hi) + "], got " + std::to_string(v));
        }
    }
};

/** The set count (sizeBytes / (lineBytes x ways)) must be a power of
 * two: cache::ICache indexes its sets with a mask. */
void
checkCacheSets(const std::string &n, const cache::ICacheParams &c)
{
    const std::uint64_t way_bytes = std::uint64_t{c.lineBytes} * c.ways;
    if (c.sizeBytes % way_bytes != 0 || !isPowerOf2(c.sizeBytes / way_bytes))
        reject(n + ".sizeBytes must be lineBytes x ways x a power of two "
               "(the set count), got " + std::to_string(c.sizeBytes));
}

} // namespace

void
MachineParams::validate() const
{
    RuleCheck check{cmp.sharedL2i};
    fields(*this, check);

    if (btb2Enabled && btb2.rowBytes != 32 && btb2.rowBytes != 64 &&
        btb2.rowBytes != 128) {
        reject("btb2.rowBytes must be 32, 64 or 128 when the BTB2 "
               "engine is enabled, got " + std::to_string(btb2.rowBytes));
    }
    if (sot.ways == 0 || sot.entries == 0 || sot.entries % sot.ways != 0)
        reject("sot.entries must be a non-zero multiple of sot.ways, "
               "got " + std::to_string(sot.entries) + " entries x " +
               std::to_string(sot.ways) + " ways");
    if (!isPowerOf2(sot.entries / sot.ways))
        reject("sot sets (entries / ways) must be a power of two, got " +
               std::to_string(sot.entries / sot.ways));
    checkCacheSets("icache", icache);
    checkCacheSets("dcache", dcache);
    if (cmp.sharedL2i)
        checkCacheSets("cmp.l2i", cmp.l2i);
    if (cmp.btb2Banks > btb2.rows)
        reject("cmp.btb2Banks " + std::to_string(cmp.btb2Banks) +
               " exceeds btb2.rows " + std::to_string(btb2.rows) +
               " (cannot bank finer than one row per bank)");
}

} // namespace zbp::core
