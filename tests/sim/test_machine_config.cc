/**
 * @file
 * Tests for the key=value machine configuration parser.
 */

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/sim/machine_config.hh"

namespace zbp::sim
{
namespace
{

TEST(MachineConfig, EmptyTextIsIdentity)
{
    core::MachineParams p;
    const auto r = applyConfigText("", p);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(p.btb1.rows, 1024u);
}

TEST(MachineConfig, SetsNumericKeys)
{
    core::MachineParams p;
    const auto r = applyConfigText(
            "btb2.rows = 2048\n"
            "engine.numTrackers = 6\n"
            "search.missSearchLimit = 2\n"
            "cpu.decodeWidth = 2\n",
            p);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(p.btb2.rows, 2048u);
    EXPECT_EQ(p.engine.numTrackers, 6u);
    EXPECT_EQ(p.search.missSearchLimit, 2u);
    EXPECT_EQ(p.cpu.decodeWidth, 2u);
}

TEST(MachineConfig, SetsBooleans)
{
    core::MachineParams p;
    const auto r = applyConfigText(
            "btb2Enabled = false\n"
            "engine.icacheFilter = off\n"
            "sot.enabled = no\n"
            "engine.multiBlockTransfer = yes\n",
            p);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(p.btb2Enabled);
    EXPECT_FALSE(p.engine.icacheFilter);
    EXPECT_FALSE(p.sot.enabled);
    EXPECT_TRUE(p.engine.multiBlockTransfer);
}

TEST(MachineConfig, SetsDoubles)
{
    core::MachineParams p;
    ASSERT_TRUE(applyConfigText("cpu.dataStallProb = 0.125\n", p).ok);
    EXPECT_DOUBLE_EQ(p.cpu.dataStallProb, 0.125);
}

TEST(MachineConfig, SetsArbPolicyByName)
{
    core::MachineParams p;
    ASSERT_TRUE(applyConfigText("cmp.arbPolicy = tdm\n", p).ok);
    EXPECT_EQ(p.cmp.arbPolicy, preload::ArbPolicy::kTdm);
    ASSERT_TRUE(applyConfigText("cmp.arbPolicy = fcfs\n", p).ok);
    EXPECT_EQ(p.cmp.arbPolicy, preload::ArbPolicy::kFcfs);
    EXPECT_FALSE(applyConfigText("cmp.arbPolicy = 1\n", p).ok);
}

TEST(MachineConfig, CommentsAndBlanksIgnored)
{
    core::MachineParams p;
    const auto r = applyConfigText(
            "# a comment\n"
            "\n"
            "btb1.ways = 8  # trailing comment\n",
            p);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(p.btb1.ways, 8u);
}

TEST(MachineConfig, HexValuesAccepted)
{
    core::MachineParams p;
    ASSERT_TRUE(applyConfigText("icache.sizeBytes = 0x20000\n", p).ok);
    EXPECT_EQ(p.icache.sizeBytes, 0x20000u);
}

TEST(MachineConfig, UnknownKeyRejectedWithLine)
{
    core::MachineParams p;
    const auto r = applyConfigText("btb1.rows = 512\nnope.key = 1\n", p);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.line, 2u);
    EXPECT_NE(r.error.find("unknown key"), std::string::npos);
    // Earlier lines were applied (documented partial-update behaviour).
    EXPECT_EQ(p.btb1.rows, 512u);
}

TEST(MachineConfig, BadValueRejected)
{
    core::MachineParams p;
    const auto r = applyConfigText("btb2.rows = many\n", p);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("bad value"), std::string::npos);
}

TEST(MachineConfig, MissingEqualsRejected)
{
    core::MachineParams p;
    const auto r = applyConfigText("btb2.rows 2048\n", p);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.line, 1u);
}

TEST(MachineConfig, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/zbp_cfg_test.cfg";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("engine.rowReadInterval = 3\n", f);
        std::fclose(f);
    }
    core::MachineParams p;
    const auto r = applyConfigFile(path, p);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(p.engine.rowReadInterval, 3u);
    std::remove(path.c_str());
}

TEST(MachineConfig, MissingFileFails)
{
    core::MachineParams p;
    EXPECT_FALSE(applyConfigFile("/no/such/file.cfg", p).ok);
}

TEST(MachineConfig, KeyListCoversSections)
{
    const auto keys = configKeyList();
    for (const char *k :
         {"btb1.rows", "btb2.tagBits", "engine.numTrackers",
          "sot.enabled", "icache.missLatency", "dcache.sizeBytes",
          "cpu.decodeWidth", "search.missSearchLimit"}) {
        EXPECT_NE(keys.find(k), std::string::npos) << k;
    }
}

/** Every field's value as raw bits, in fields() order. */
std::vector<std::uint64_t>
fieldBits(const core::MachineParams &p)
{
    std::vector<std::uint64_t> out;
    auto read = [&out](const char *, const auto &f, core::FieldRule = {}) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(f)>,
                                     double>)
            out.push_back(std::bit_cast<std::uint64_t>(f));
        else
            out.push_back(static_cast<std::uint64_t>(f));
    };
    core::MachineParams::fields(p, read);
    return out;
}

TEST(MachineConfig, EveryFieldHasAKeyThatSetsOnlyThatField)
{
    // "<key> = <a value other than the default>" for every visited field.
    const core::MachineParams defaults;
    std::vector<std::string> names, lines;
    auto tweak = [&](const char *key, const auto &f, core::FieldRule = {}) {
        using T = std::remove_cvref_t<decltype(f)>;
        std::string v;
        if constexpr (std::is_same_v<T, bool>)
            v = f ? "false" : "true";
        else if constexpr (std::is_same_v<T, double>)
            v = f == 0.5 ? "0.25" : "0.5";
        else if constexpr (std::is_same_v<T, preload::ArbPolicy>)
            v = f == preload::ArbPolicy::kTdm ? "fcfs" : "tdm";
        else
            v = std::to_string(f + 1);
        names.push_back(key);
        lines.push_back(std::string(key) + " = " + v);
    };
    core::MachineParams::fields(defaults, tweak);

    ASSERT_EQ(names.size(), 67u);
    std::string list;
    for (const auto &n : names)
        list += n + '\n';
    EXPECT_EQ(configKeyList(), list);

    const auto base = fieldBits(defaults);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        core::MachineParams p;
        const auto r = applyConfigText(lines[i], p);
        ASSERT_TRUE(r.ok) << lines[i] << ": " << r.error;
        const auto now = fieldBits(p);
        for (std::size_t j = 0; j < now.size(); ++j)
            EXPECT_EQ(now[j] != base[j], i == j)
                    << "'" << lines[i] << "' and field " << names[j];
    }
}

} // namespace
} // namespace zbp::sim
