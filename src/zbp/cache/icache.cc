#include "zbp/cache/icache.hh"

namespace zbp::cache
{

ICache::ICache(const ICacheParams &p) : prm(p)
{
    ZBP_ASSERT(isPowerOf2(prm.lineBytes), "line size must be pow2");
    ZBP_ASSERT(prm.ways >= 1, "need at least one way");
    ZBP_ASSERT(prm.sizeBytes % (prm.lineBytes * prm.ways) == 0,
               "size not divisible by line*ways");
    numSets = prm.sizeBytes / (prm.lineBytes * prm.ways);
    ZBP_ASSERT(isPowerOf2(numSets), "set count must be pow2");
    lineShift = floorLog2(prm.lineBytes);
    setShift = floorLog2(numSets);
    lines.resize(static_cast<std::size_t>(numSets) * prm.ways);
    lru.reserve(numSets);
    for (std::uint32_t s = 0; s < numSets; ++s)
        lru.emplace_back(prm.ways);
}

std::uint64_t
ICache::setIndex(Addr addr) const
{
    return (addr >> lineShift) & (numSets - 1);
}

Addr
ICache::tagOf(Addr addr) const
{
    return addr >> (lineShift + setShift);
}

bool
ICache::probe(Addr addr) const
{
    const auto set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *row = &lines[set * prm.ways];
    for (std::uint32_t w = 0; w < prm.ways; ++w)
        if (row[w].valid && row[w].tag == tag)
            return true;
    return false;
}

bool
ICache::lookup(Addr addr)
{
    const auto set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *row = &lines[set * prm.ways];
    for (std::uint32_t w = 0; w < prm.ways; ++w) {
        if (row[w].valid && row[w].tag == tag) {
            lru[set].touch(w);
            ++nHits;
            return true;
        }
    }

    // Miss: install into the LRU way.
    const unsigned victim = lru[set].lru();
    row[victim].valid = true;
    row[victim].tag = tag;
    lru[set].touch(victim);
    ++nMisses;
    return false;
}

bool
ICache::blockMissedRecently(Addr addr, Cycle now) const
{
    const Cycle *at = blockMiss.find(addr >> 12);
    return at != nullptr && now >= *at && now - *at <= prm.missRecordTtl;
}

void
ICache::saveState(ckpt::Writer &w) const
{
    state(*this, w);
}

void
ICache::restoreState(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
ICache::state(Self &s, Io &io)
{
    io.beginSection(ckpt::tag::kICache);
    io.expect(s.numSets, "I-cache sets");
    io.expect(s.prm.ways, "I-cache ways");
    io.expect(s.prm.lineBytes, "I-cache line bytes");
    for (auto &l : s.lines) {
        io.flag(l.valid);
        io.u64(l.tag);
    }
    for (auto &l : s.lru)
        LruState::state(l, io);
    FlatAddrMap<Cycle>::state(s.blockMiss, io);
    io.counter(s.nHits);
    io.counter(s.nMisses);
    io.endSection();
}

} // namespace zbp::cache
