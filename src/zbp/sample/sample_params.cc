#include "zbp/sample/sample_params.hh"

#include <stdexcept>
#include <string>

namespace zbp::sample
{

const char *
to_string(SampleMode m)
{
    return m == SampleMode::kExact ? "exact" : "fast";
}

std::uint64_t
SampleParams::measured() const
{
    if (mode == SampleMode::kExact)
        return intervalInsts;
    if (measureInsts != 0)
        return measureInsts;
    const std::uint64_t tenth = intervalInsts / 10;
    return tenth > 0 ? tenth : 1;
}

void
SampleParams::validate() const
{
    if (intervalInsts == 0)
        throw std::invalid_argument("sample: intervalInsts must be >= 1");
    if (mode == SampleMode::kFast &&
        warmupInsts + measured() > intervalInsts)
        throw std::invalid_argument(
                "sample: fast-mode warm-up (" +
                std::to_string(warmupInsts) + ") + measured window (" +
                std::to_string(measured()) +
                ") must fit inside one interval (" +
                std::to_string(intervalInsts) + ")");
}

} // namespace zbp::sample
