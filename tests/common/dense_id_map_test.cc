#include "common/dense_id_map.hh"

#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace dirsim
{
namespace
{

TEST(DenseIdMapTest, AssignsIdsInFirstAppearanceOrder)
{
    DenseIdMap map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.idFor(700), (std::pair<std::uint32_t, bool>(0, true)));
    EXPECT_EQ(map.idFor(3), (std::pair<std::uint32_t, bool>(1, true)));
    EXPECT_EQ(map.idFor(700),
              (std::pair<std::uint32_t, bool>(0, false)));
    EXPECT_EQ(map.idFor(3), (std::pair<std::uint32_t, bool>(1, false)));
    EXPECT_EQ(map.size(), 2u);
}

TEST(DenseIdMapTest, ZeroAndExtremeKeysAreOrdinary)
{
    DenseIdMap map;
    EXPECT_EQ(map.idFor(0).first, 0u);
    EXPECT_EQ(map.idFor(~std::uint64_t{0}).first, 1u);
    EXPECT_FALSE(map.idFor(0).second);
    EXPECT_FALSE(map.idFor(~std::uint64_t{0}).second);
}

TEST(DenseIdMapTest, SurvivesGrowthPastInitialCapacity)
{
    // Far beyond the 1024-slot initial table, with keys shaped like
    // real block numbers (near-sequential runs plus scattered ones),
    // cross-checked against std::map.
    DenseIdMap map;
    std::map<std::uint64_t, std::uint32_t> reference;
    std::mt19937_64 rng(42);
    for (int step = 0; step < 50000; ++step) {
        const std::uint64_t key = (step % 3 != 0)
            ? static_cast<std::uint64_t>(step / 2)
            : rng();
        const auto [id, inserted] = map.idFor(key);
        const auto it = reference.find(key);
        if (it == reference.end()) {
            EXPECT_TRUE(inserted);
            EXPECT_EQ(id, reference.size());
            reference.emplace(key, id);
        } else {
            EXPECT_FALSE(inserted);
            EXPECT_EQ(id, it->second);
        }
    }
    EXPECT_EQ(map.size(), reference.size());
}

TEST(DenseIdMapTest, CollidingLowBitsStayDistinct)
{
    // Keys that differ only above bit 32 of the hash input land near
    // each other under the multiplicative hash; linear probing must
    // still keep them distinct.
    DenseIdMap map;
    for (std::uint32_t i = 0; i < 1000; ++i)
        EXPECT_EQ(map.idFor(std::uint64_t{1} << 40 | i).first, i);
    for (std::uint32_t i = 0; i < 1000; ++i)
        EXPECT_EQ(map.idFor(std::uint64_t{1} << 40 | i).first, i);
    EXPECT_EQ(map.size(), 1000u);
}

TEST(DenseIdMapTest, KeysListEveryKeyInIdOrderAcrossGrowth)
{
    // keys()[id] is the key that id was assigned to, through several
    // doublings of the table; the rvalue overload hands over the
    // same list.
    DenseIdMap map;
    std::vector<std::uint64_t> expected;
    std::mt19937_64 rng(7);
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = (step % 4 == 0) ? rng() : step / 3;
        if (map.idFor(key).second)
            expected.push_back(key);
        if (step == 0 || step == 511 || step == 513 || step == 4096) {
            EXPECT_EQ(map.keys(), expected) << "step " << step;
        }
    }
    ASSERT_GT(expected.size(), 4096u);
    EXPECT_EQ(map.keys(), expected);
    for (std::uint32_t id = 0; id < expected.size(); ++id)
        EXPECT_EQ(map.idFor(expected[id]).first, id);
    EXPECT_EQ(std::move(map).keys(), expected);
}

} // namespace
} // namespace dirsim
