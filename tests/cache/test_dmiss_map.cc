/**
 * @file
 * Tests for the precomputed L1 D-cache outcome map: the map must equal
 * what a live cache replay yields, and a model run with the map
 * attached must be bit-identical to one without it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/cache/icache.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/sim/configs.hh"
#include "zbp/workload/suites.hh"

namespace zbp::cache
{
namespace
{

TEST(DataMissMap, MatchesLiveCacheReplay)
{
    const auto t = workload::makeSuiteTrace(
            workload::findSuite("cb84"), 0.01);
    const ICacheParams geom = dcacheParams();
    const auto map = computeDataMissMap(t, geom);
    ASSERT_EQ(map.size(), t.size());

    ICache live(geom);
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].dataAddr() == kNoAddr) {
            EXPECT_EQ(map[i], 0) << "no-access slot " << i;
            continue;
        }
        const bool hit = live.access(t[i].dataAddr(), 0);
        EXPECT_EQ(map[i], hit ? 0 : 1) << "access " << i;
    }
    EXPECT_GT(live.misses(), 0u) << "test trace should miss sometimes";
}

TEST(DataMissMap, GeometryComparatorIgnoresLatency)
{
    ICacheParams a = dcacheParams();
    ICacheParams b = a;
    b.missLatency += 5;
    b.missRecordTtl += 100;
    EXPECT_TRUE(sameDataMissGeometry(a, b));
    b = a;
    b.ways *= 2;
    EXPECT_FALSE(sameDataMissGeometry(a, b));
}

TEST(DataMissMap, AttachedMapRunsBitIdentical)
{
    const auto t = workload::makeSuiteTrace(
            workload::findSuite("cb84"), 0.01);
    const auto cfg = sim::configBtb2();

    cpu::CoreModel plain(cfg);
    const auto ref = plain.run(t);

    const auto map = computeDataMissMap(t, cfg.dcache);
    cpu::CoreModel mapped(cfg);
    mapped.setDataMissMap(&map);
    const auto got = mapped.run(t);

    EXPECT_EQ(got.cycles, ref.cycles);
    EXPECT_EQ(got.dcacheMisses, ref.dcacheMisses);
    EXPECT_EQ(got.dataAccesses, ref.dataAccesses);
    EXPECT_EQ(got.correct, ref.correct);
    EXPECT_EQ(got.mispredictDir, ref.mispredictDir);
    EXPECT_EQ(got.mispredictTarget, ref.mispredictTarget);
    EXPECT_EQ(got.icacheMisses, ref.icacheMisses);
    EXPECT_EQ(got.btb2Transfers, ref.btb2Transfers);
    EXPECT_DOUBLE_EQ(got.cpi, ref.cpi);
}

TEST(DataMissMap, MismatchedMapIsRejectedAtBeginRun)
{
    const auto t = workload::makeSuiteTrace(
            workload::findSuite("cb84"), 0.01);
    const std::vector<std::uint8_t> wrong(t.size() + 1, 0);
    cpu::CoreModel m(sim::configBtb2());
    m.setDataMissMap(&wrong);
    EXPECT_THROW(m.beginRun(t), std::invalid_argument);
}

} // namespace
} // namespace zbp::cache
