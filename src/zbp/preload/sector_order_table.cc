#include "zbp/preload/sector_order_table.hh"

namespace zbp::preload
{

SectorOrderTable::SectorOrderTable(const SotParams &p) : prm(p)
{
    ZBP_ASSERT(prm.ways >= 1 && prm.entries % prm.ways == 0,
               "SOT entries must divide by ways");
    numSets = prm.entries / prm.ways;
    ZBP_ASSERT(isPowerOf2(numSets), "SOT sets must be a power of two");
    table.resize(prm.entries);
    lru.reserve(numSets);
    for (std::uint32_t s = 0; s < numSets; ++s)
        lru.emplace_back(prm.ways);
}

std::uint32_t
SectorOrderTable::setOf(Addr block) const
{
    return static_cast<std::uint32_t>(block & (numSets - 1));
}

const SectorOrderTable::Entry *
SectorOrderTable::find(Addr block) const
{
    const auto set = setOf(block);
    const Entry *row = &table[static_cast<std::size_t>(set) * prm.ways];
    for (std::uint32_t w = 0; w < prm.ways; ++w)
        if (row[w].valid && row[w].block == block)
            return &row[w];
    return nullptr;
}

void
SectorOrderTable::writeBack()
{
    if (!tracking || working.empty())
        return;
    const auto set = setOf(curBlock);
    Entry *row = &table[static_cast<std::size_t>(set) * prm.ways];
    // Merge into an existing entry for the block, or replace the LRU.
    for (std::uint32_t w = 0; w < prm.ways; ++w) {
        if (row[w].valid && row[w].block == curBlock) {
            row[w].pattern.merge(working);
            lru[set].touch(w);
            ++nWriteback;
            return;
        }
    }
    const unsigned victim = lru[set].lru();
    row[victim].valid = true;
    row[victim].block = curBlock;
    row[victim].pattern = working;
    lru[set].touch(victim);
    ++nWriteback;
}

void
SectorOrderTable::instructionCompleted(Addr ia)
{
    if (!prm.enabled)
        return;

    const Addr block = blockOf(ia);
    const unsigned sector = sectorOf(ia);
    const unsigned q = sector / kSectorsPerQuartile;
    if (!tracking || block != curBlock) {
        // Entering a different 4 KB block: store the pattern gathered
        // for the previous block, then retrieve any stored pattern for
        // the new block so new paths extend what is already known.
        writeBack();
        curBlock = block;
        demandQuartile = q;
        tracking = true;
        if (const Entry *e = find(block))
            working = e->pattern;
        else
            working = BlockPattern{};
    }

    working.sectorBits |= (1u << sector);
    if (q != demandQuartile)
        working.quartileRefs[demandQuartile] |=
                static_cast<std::uint8_t>(1u << q);
}

SectorOrder
SectorOrderTable::sequentialOrder(unsigned demand_quartile)
{
    SectorOrder o;
    const unsigned start = demand_quartile * kSectorsPerQuartile;
    for (unsigned i = 0; i < kSectorsPerBlock; ++i)
        o.sectors[i] = static_cast<std::uint8_t>(
                (start + i) % kSectorsPerBlock);
    o.activeCount = 0;
    o.fromTableHit = false;
    return o;
}

SectorOrder
SectorOrderTable::buildOrder(const BlockPattern &p, unsigned demand_quartile)
{
    SectorOrder o;
    o.fromTableHit = true;
    unsigned n = 0;

    // Quartile visit order: demand, referenced-from-demand, the rest.
    std::array<std::uint8_t, kQuartiles> qorder{};
    unsigned qn = 0;
    qorder[qn++] = static_cast<std::uint8_t>(demand_quartile);
    const std::uint8_t refs = p.quartileRefs[demand_quartile];
    for (unsigned q = 0; q < kQuartiles; ++q)
        if (q != demand_quartile && (refs & (1u << q)))
            qorder[qn++] = static_cast<std::uint8_t>(q);
    for (unsigned q = 0; q < kQuartiles; ++q)
        if (q != demand_quartile && !(refs & (1u << q)))
            qorder[qn++] = static_cast<std::uint8_t>(q);
    ZBP_ASSERT(qn == kQuartiles, "quartile order incomplete");

    // Pass 1: active sectors in quartile priority order.
    for (unsigned qi = 0; qi < kQuartiles; ++qi) {
        const unsigned base = qorder[qi] * kSectorsPerQuartile;
        for (unsigned s = 0; s < kSectorsPerQuartile; ++s)
            if (p.sectorBits & (1u << (base + s)))
                o.sectors[n++] = static_cast<std::uint8_t>(base + s);
    }
    o.activeCount = n;

    // Pass 2: the same priority repeated for inactive sectors.
    for (unsigned qi = 0; qi < kQuartiles; ++qi) {
        const unsigned base = qorder[qi] * kSectorsPerQuartile;
        for (unsigned s = 0; s < kSectorsPerQuartile; ++s)
            if (!(p.sectorBits & (1u << (base + s))))
                o.sectors[n++] = static_cast<std::uint8_t>(base + s);
    }
    ZBP_ASSERT(n == kSectorsPerBlock, "sector order incomplete");
    return o;
}

SectorOrder
SectorOrderTable::order(Addr miss_addr) const
{
    const unsigned demand = quartileOf(miss_addr);
    if (!prm.enabled) {
        ++nMisses;
        return sequentialOrder(demand);
    }

    const Addr block = blockOf(miss_addr);
    BlockPattern pat;
    bool have = false;
    if (const Entry *e = find(block)) {
        pat = e->pattern;
        have = true;
    }
    if (tracking && curBlock == block && !working.empty()) {
        pat.merge(working);
        have = true;
    }
    if (!have) {
        ++nMisses;
        return sequentialOrder(demand);
    }
    ++nHits;
    return buildOrder(pat, demand);
}

const BlockPattern *
SectorOrderTable::probe(Addr block_addr) const
{
    const Entry *e = find(blockOf(block_addr));
    return e ? &e->pattern : nullptr;
}

void
SectorOrderTable::reset()
{
    for (auto &e : table)
        e.valid = false;
    tracking = false;
    working = BlockPattern{};
}

namespace
{

template <class Self, class Io>
void
patternState(Self &p, Io &io)
{
    io.u32(p.sectorBits);
    for (auto &q : p.quartileRefs)
        io.u8(q);
}

} // namespace

void
SectorOrderTable::saveState(ckpt::Writer &w) const
{
    state(*this, w);
}

void
SectorOrderTable::restoreState(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
SectorOrderTable::state(Self &s, Io &io)
{
    io.beginSection(ckpt::tag::kSot);
    io.expect(s.numSets, "SOT sets");
    io.expect(s.prm.ways, "SOT ways");
    for (auto &e : s.table) {
        io.flag(e.valid);
        io.u64(e.block);
        patternState(e.pattern, io);
    }
    for (auto &l : s.lru)
        LruState::state(l, io);
    io.flag(s.tracking);
    io.u64(s.curBlock);
    io.u32(s.demandQuartile);
    io.check(s.demandQuartile < kQuartiles, "demand quartile out of range");
    patternState(s.working, io);
    io.counter(s.nWriteback);
    io.counter(s.nHits);
    io.counter(s.nMisses);
    io.endSection();
}

} // namespace zbp::preload
