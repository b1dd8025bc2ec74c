#include "zbp/cache/dmiss_map.hh"

namespace zbp::cache
{

std::vector<std::uint8_t>
computeDataMissMap(const trace::Trace &t, const ICacheParams &p)
{
    ICache c(p);
    std::vector<std::uint8_t> map(t.size(), 0);
    fillDataMissMap(t, c, map, 0, t.size());
    return map;
}

void
fillDataMissMap(const trace::Trace &t, ICache &c,
                std::vector<std::uint8_t> &map, std::size_t begin,
                std::size_t end)
{
    for (std::size_t i = begin; i < end; ++i) {
        const Addr a = t[i].dataAddr();
        map[i] = a != kNoAddr && !c.lookup(a) ? 1 : 0;
    }
}

} // namespace zbp::cache
