#include "zbp/btb/set_assoc_btb.hh"

#include <stdexcept>

namespace zbp::btb
{

BtbConfig
btb1Config()
{
    // 4k branches: 1k rows x 4 ways, 32 B rows (IA bits 49:58).
    return BtbConfig{1024, 4, 32, 40};
}

BtbConfig
btbpConfig()
{
    // 768 branches: 128 rows x 6 ways, 32 B rows (IA bits 52:58).
    return BtbConfig{128, 6, 32, 40};
}

BtbConfig
btb2Config()
{
    // 24k branches: 4k rows x 6 ways, 32 B rows (IA bits 47:58).
    return BtbConfig{4096, 6, 32, 40};
}

SetAssocBtb::SetAssocBtb(std::string name, const BtbConfig &cfg_)
    : btbName(std::move(name)), cfg(cfg_)
{
    ZBP_ASSERT(isPowerOf2(cfg.rows), "BTB rows must be a power of two");
    ZBP_ASSERT(isPowerOf2(cfg.rowBytes), "rowBytes must be a power of two");
    // The hit list and the padded key-plane lane group are fixed at
    // kMaxBtbWays; a wider config would overflow both, so it is a
    // construction error, not an assert (sweeps feed user geometry here).
    if (cfg.ways < 1 || cfg.ways > kMaxBtbWays) {
        throw std::invalid_argument(
                "SetAssocBtb '" + btbName + "': ways " +
                std::to_string(cfg.ways) + " outside the supported range "
                "1.." + std::to_string(kMaxBtbWays) +
                " (inline hit-list / lane-group capacity)");
    }
    ZBP_ASSERT(cfg.tagBits >= 1 && cfg.tagBits <= 58, "bad tagBits");
    cfg.precompute();
    const std::size_t n = std::size_t{cfg.rows} * kWayStride;
    keys.assign(n, 0);
    ias.assign(n, 0);
    targets.assign(n, 0);
    meta.assign(n, 0);
    rowSig.assign(cfg.rows, 0);
    lru.reserve(cfg.rows);
    for (std::uint32_t r = 0; r < cfg.rows; ++r)
        lru.emplace_back(cfg.ways);
}

void
SetAssocBtb::update(std::uint32_t row, std::uint32_t way,
                    const BtbEntry &e)
{
    ZBP_ASSERT(row < cfg.rows && way < cfg.ways, "slot out of range");
    ZBP_ASSERT(e.valid, "writing an invalid entry back");
    storeEntry(row, way, e);
    // Keep the row filter a superset of the stored tags (the write-back
    // normally leaves ia untouched, making this a no-op OR).
    rowSig[row] |= tagSig(e.ia);
}

std::optional<BtbEntry>
SetAssocBtb::install(const BtbEntry &e, bool make_mru)
{
    ZBP_ASSERT(e.valid, "installing an invalid entry");
    const std::uint32_t row = rowOf(e.ia);
    rowSig[row] |= tagSig(e.ia);
    const std::size_t base = slotBase(row);

    // Same-branch update in place (tag match + same row offset).
    std::uint32_t m = simd::matchWays(&keys[base], searchKey(e.ia),
                                      cfg.ways);
    while (m != 0) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
        m &= m - 1;
        if (((ias[base + w] ^ e.ia) & cfg.offsetMask) != 0)
            continue;
        storeEntry(row, w, e);
        if (make_mru)
            lru[row].touch(w);
        else
            lru[row].demote(w);
        ++nUpdates;
        return std::nullopt;
    }

    // Prefer an invalid way; otherwise replace LRU.
    std::uint32_t victim_way = cfg.ways;
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        if ((keys[base + w] & kValidBit) == 0) {
            victim_way = w;
            break;
        }
    }
    std::optional<BtbEntry> displaced;
    if (victim_way == cfg.ways) {
        victim_way = lru[row].lru();
        displaced = entryAt(row, victim_way);
        ++nEvictions;
    }
    storeEntry(row, victim_way, e);
    if (make_mru)
        lru[row].touch(victim_way);
    else
        lru[row].demote(victim_way);
    ++nInstalls;
    return displaced;
}

void
SetAssocBtb::touch(Addr ia)
{
    if (auto hit = lookup(ia))
        lru[hit->row].touch(hit->way);
}

void
SetAssocBtb::demote(std::uint32_t row, std::uint32_t way)
{
    ZBP_ASSERT(row < cfg.rows && way < cfg.ways, "slot out of range");
    lru[row].demote(way);
}

bool
SetAssocBtb::invalidate(Addr ia)
{
    if (auto hit = lookup(ia)) {
        clearSlot(hit->row, hit->way);
        lru[hit->row].demote(hit->way);
        return true;
    }
    return false;
}

void
SetAssocBtb::reset()
{
    // Clearing the key plane invalidates every slot; the wider planes
    // are dead until their lane is re-validated by a store.
    keys.assign(keys.size(), 0);
    rowSig.assign(cfg.rows, 0);
    // Recency must go with the contents: a reset table should fill way
    // 0 first again, not in whatever order history left behind.
    for (auto &l : lru)
        l.reset();
}

void
SetAssocBtb::attachFaultInjector(fault::FaultInjector &inj,
                                 fault::Site site)
{
    faults = &inj;
    faultSite = site;
    inj.attach(site, [this](Rng &rng, std::uint64_t where) {
        corruptEntry(rng, where);
    });
}

void
SetAssocBtb::corruptEntry(Rng &rng, Addr where)
{
    // A parity hit lands on one way of the accessed row.  Hitting an
    // empty way has no architectural effect; a populated way either
    // loses its entry outright or keeps it with a flipped stored bit.
    const std::uint32_t row = rowOf(where);
    const std::uint32_t way = rng.below(cfg.ways);
    const std::size_t s = slotBase(row) + way;
    if ((keys[s] & kValidBit) == 0)
        return;
    switch (rng.below(3)) {
      case 0:
        // Parity-scrubbed: the entry is dropped (next use = surprise).
        keys[s] = 0;
        break;
      case 1:
        // Stored target bit flip: a taken prediction goes to a wrong
        // address and is corrected at resolve (mispredictTarget).
        targets[s] ^= Addr{1} << rng.below(48);
        break;
      default:
        // Stored tag bit flip: the entry stops matching its branch
        // (and may alias another), staying within the same row.
        ias[s] ^= Addr{1} << (cfg.tagShift + rng.below(8));
        // The flipped tag bypassed install(); refresh the key lane and
        // keep the row filter a superset of the stored tags so the
        // aliased match stays findable.
        keys[s] = searchKey(ias[s]);
        rowSig[row] |= tagSig(ias[s]);
        break;
    }
}

std::uint64_t
SetAssocBtb::validCount() const
{
    std::uint64_t n = 0;
    for (std::uint32_t r = 0; r < cfg.rows; ++r)
        for (std::uint32_t w = 0; w < cfg.ways; ++w)
            n += (keys[slotBase(r) + w] & kValidBit) != 0 ? 1 : 0;
    return n;
}

void
SetAssocBtb::saveState(ckpt::Writer &w) const
{
    state(*this, w);
}

void
SetAssocBtb::restoreState(ckpt::Reader &r)
{
    state(*this, r);
}

template <class Self, class Io>
void
SetAssocBtb::state(Self &s, Io &io)
{
    io.beginSection(ckpt::tag::kBtb);
    io.expect(s.cfg.rows, "BTB rows");
    io.expect(s.cfg.ways, "BTB ways");
    io.expect(s.cfg.rowBytes, "BTB row bytes");
    io.expect(s.cfg.tagBits, "BTB tag width");
    // Only the configured ways are stored; padding lanes are always
    // zero.
    for (std::uint32_t row = 0; row < s.cfg.rows; ++row) {
        const std::size_t base = s.slotBase(row);
        for (std::size_t i = base; i < base + s.cfg.ways; ++i) {
            io.u64(s.keys[i]);
            io.u64(s.ias[i]);
            io.u64(s.targets[i]);
            io.u8(s.meta[i]);
        }
        io.u64(s.rowSig[row]);
        LruState::state(s.lru[row], io);
    }
    io.counter(s.nInstalls);
    io.counter(s.nEvictions);
    io.counter(s.nUpdates);
    io.endSection();
}

} // namespace zbp::btb
