/** @file Unit tests for cache/finite_cache.hh. */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <utility>
#include <vector>

#include "cache/finite_cache.hh"
#include "common/logging.hh"

namespace dirsim
{
namespace
{

FiniteCacheConfig
smallConfig()
{
    FiniteCacheConfig config;
    config.capacityBytes = 256; // 16 blocks
    config.ways = 2;            // 8 sets
    config.blockBytes = 16;
    return config;
}

TEST(FiniteCacheConfigTest, GeometryDerivation)
{
    const FiniteCacheConfig config = smallConfig();
    EXPECT_EQ(config.numSets(), 8u);
    EXPECT_NO_THROW(config.check());
}

TEST(FiniteCacheConfigTest, RejectsBadGeometry)
{
    FiniteCacheConfig config = smallConfig();
    config.capacityBytes = 100; // not a power of two
    EXPECT_THROW(config.check(), UsageError);

    config = smallConfig();
    config.ways = 0;
    EXPECT_THROW(config.check(), UsageError);

    config = smallConfig();
    config.ways = 3; // 16 lines not divisible by 3
    EXPECT_THROW(config.check(), UsageError);

    config = smallConfig();
    config.blockBytes = 24;
    EXPECT_THROW(config.check(), UsageError);
}

TEST(FiniteCacheConfigTest, RejectsCapacityAboveTheLimit)
{
    FiniteCacheConfig config;
    config.ways = 1;
    config.capacityBytes = FiniteCacheConfig::maxCapacityBytes;
    EXPECT_NO_THROW(config.check());

    config.capacityBytes = 1ull << 40; // 1 TiB, direct-mapped
    try {
        config.check();
        FAIL() << "a 2^40-byte cache passed the check";
    } catch (const UsageError &error) {
        EXPECT_NE(std::string(error.what()).find("4294967296"),
                  std::string::npos)
            << error.what();
    }
    config.capacityBytes = FiniteCacheConfig::maxCapacityBytes * 2;
    EXPECT_THROW(config.check(), UsageError);
    EXPECT_THROW(FiniteCache cache(config), UsageError);
}

TEST(FiniteCacheTest, BasicInstallAndLookup)
{
    FiniteCache cache(smallConfig());
    EXPECT_EQ(cache.set(3, 1).state, stateNotPresent); // no victim
    EXPECT_EQ(cache.lookup(3), 1);
    EXPECT_EQ(cache.residentBlocks(), 1u);
}

TEST(FiniteCacheTest, UpdateDoesNotGrow)
{
    FiniteCache cache(smallConfig());
    cache.set(3, 1);
    EXPECT_EQ(cache.set(3, 2).state, stateNotPresent);
    EXPECT_EQ(cache.residentBlocks(), 1u);
    EXPECT_EQ(cache.lookup(3), 2);
}

TEST(FiniteCacheTest, EvictsLruWithinSet)
{
    FiniteCache cache(smallConfig());
    // Blocks 0, 8, 16 all map to set 0 (8 sets); ways = 2.
    cache.set(0, 1);
    cache.set(8, 1);
    EXPECT_EQ(cache.access(0), 1); // 8 is now LRU
    cache.set(16, 1);
    EXPECT_NE(cache.lookup(0), stateNotPresent);
    EXPECT_EQ(cache.lookup(8), stateNotPresent);
    EXPECT_NE(cache.lookup(16), stateNotPresent);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(FiniteCacheTest, SetReturnsVictim)
{
    FiniteCache cache(smallConfig());
    EXPECT_EQ(cache.set(0, 1).state, stateNotPresent);
    EXPECT_EQ(cache.set(8, 2).state, stateNotPresent);
    const CacheLine victim = cache.set(16, 1); // evicts 0 (LRU)
    EXPECT_EQ(victim.block, 0u);
    EXPECT_EQ(victim.state, 1);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.residentBlocks(), 2u);
}


TEST(FiniteCacheTest, SetPromotesToMru)
{
    FiniteCache cache(smallConfig());
    cache.set(0, 1);
    cache.set(8, 1);
    cache.set(0, 2); // rewrite promotes block 0
    cache.set(16, 1);
    EXPECT_NE(cache.lookup(0), stateNotPresent);
    EXPECT_EQ(cache.lookup(8), stateNotPresent);
}

TEST(FiniteCacheTest, DifferentSetsDoNotInterfere)
{
    FiniteCache cache(smallConfig());
    cache.set(0, 1);
    cache.set(1, 1);
    cache.set(2, 1);
    cache.set(3, 1);
    EXPECT_EQ(cache.residentBlocks(), 4u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(FiniteCacheTest, InvalidateFreesWay)
{
    FiniteCache cache(smallConfig());
    cache.set(0, 1);
    cache.set(8, 1);
    EXPECT_EQ(cache.invalidate(0), 1);
    cache.set(16, 1);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_NE(cache.lookup(8), stateNotPresent);
    EXPECT_NE(cache.lookup(16), stateNotPresent);
}

TEST(FiniteCacheTest, InvalidateMissingReturnsNotPresent)
{
    FiniteCache cache(smallConfig());
    EXPECT_EQ(cache.invalidate(77), stateNotPresent);
}

TEST(FiniteCacheTest, CapacityBound)
{
    FiniteCache cache(smallConfig());
    for (BlockNum block = 0; block < 1000; ++block)
        cache.set(block, 1);
    EXPECT_LE(cache.residentBlocks(), 16u);
}

TEST(FiniteCacheTest, ClearEmptiesAllSets)
{
    FiniteCache cache(smallConfig());
    for (BlockNum block = 0; block < 20; ++block)
        cache.set(block, 1);
    cache.clear();
    EXPECT_EQ(cache.residentBlocks(), 0u);
    for (BlockNum block = 0; block < 20; ++block)
        EXPECT_EQ(cache.lookup(block), stateNotPresent);
}

TEST(FiniteCacheTest, ForEachVisitsResidentOnly)
{
    FiniteCache cache(smallConfig());
    cache.set(0, 1);
    cache.set(8, 1);
    cache.set(16, 1); // evicts 0
    unsigned count = 0;
    cache.forEach([&](BlockNum, CacheBlockState) { ++count; });
    EXPECT_EQ(count, 2u);
}

TEST(FiniteCacheTest, ReservedStateRejected)
{
    FiniteCache cache(smallConfig());
    EXPECT_THROW(cache.set(1, stateNotPresent), LogicError);
}

TEST(FiniteCacheTest, LruStressAgainstModel)
{
    // Property check against a per-set std::list reference: every
    // mutator, on 8 sets of 4 ways, over a block range that overflows
    // each set, with labelled (non-identity) block indices so sets
    // follow the labels.
    FiniteCacheConfig config;
    config.capacityBytes = 512; // 32 blocks
    config.ways = 4;            // 8 sets
    config.blockBytes = 16;
    const unsigned sets = 8;
    std::vector<BlockNum> labels(96);
    for (BlockNum i = 0; i < labels.size(); ++i)
        labels[i] = i * 7 + 3;
    const BlockSpace space{static_cast<std::uint32_t>(labels.size()),
                           labels.data()};
    FiniteCache cache(config, space);

    struct Line
    {
        BlockNum block;
        CacheBlockState state;
    };
    std::vector<std::list<Line>> model(sets); // front = MRU
    const auto setOf = [&](BlockNum block) {
        return space.label(block) % sets;
    };
    const auto findIn = [&](BlockNum block) {
        auto &set = model[setOf(block)];
        return std::make_pair(
            &set, std::find_if(set.begin(), set.end(), [&](const Line &l) {
                return l.block == block;
            }));
    };

    std::uint64_t x = 12345;
    const auto next = [&](std::uint64_t bound) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return (x >> 33) % bound;
    };
    std::uint64_t evictions = 0;
    for (int i = 0; i < 20000; ++i) {
        const BlockNum block = next(labels.size());
        const auto state = static_cast<CacheBlockState>(1 + next(3));
        auto [set, it] = findIn(block);
        switch (i % 2000 == 1999 ? 4 : next(4)) {
        case 0:
        case 1: { // set: install or update
            CacheLine expected;
            if (it != set->end()) {
                set->erase(it);
            } else if (set->size() == config.ways) {
                expected = {set->back().block, set->back().state};
                set->pop_back();
                ++evictions;
            }
            set->push_front(Line{block, state});
            const CacheLine victim = cache.set(block, state);
            ASSERT_EQ(victim.state, expected.state) << i;
            if (expected.state != stateNotPresent) {
                ASSERT_EQ(victim.block, expected.block) << i;
            }
            break;
        }
        case 2: { // access
            CacheBlockState expected = stateNotPresent;
            if (it != set->end()) {
                expected = it->state;
                set->splice(set->begin(), *set, it);
            }
            ASSERT_EQ(cache.access(block), expected) << i;
            break;
        }
        case 3: { // invalidate
            CacheBlockState expected = stateNotPresent;
            if (it != set->end()) {
                expected = it->state;
                set->erase(it);
            }
            ASSERT_EQ(cache.invalidate(block), expected) << i;
            break;
        }
        default: // clear, every 2000 operations
            for (auto &s : model)
                s.clear();
            cache.clear();
            break;
        }

        std::vector<std::pair<BlockNum, CacheBlockState>> expected;
        for (const auto &s : model) {
            for (const Line &line : s)
                expected.emplace_back(line.block, line.state);
        }
        std::vector<std::pair<BlockNum, CacheBlockState>> visited;
        cache.forEach([&](BlockNum b, CacheBlockState st) {
            visited.emplace_back(b, st);
        });
        ASSERT_EQ(visited, expected) << i;
        ASSERT_EQ(cache.residentBlocks(), expected.size()) << i;
        for (BlockNum b = 0; b < labels.size(); ++b) {
            const auto [s, line] = findIn(b);
            ASSERT_EQ(cache.lookup(b),
                      line != s->end() ? line->state : stateNotPresent)
                << i << " block " << b;
        }
    }
    EXPECT_EQ(cache.evictions(), evictions);
    EXPECT_GT(evictions, 1000u);
}

} // namespace
} // namespace dirsim
