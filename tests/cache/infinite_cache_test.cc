/** @file Unit tests for cache/infinite_cache.hh. */

#include <gtest/gtest.h>

#include <set>

#include "cache/infinite_cache.hh"
#include "common/logging.hh"

namespace dirsim
{
namespace
{

TEST(InfiniteCacheTest, StartsEmpty)
{
    InfiniteCache cache(64);
    EXPECT_EQ(cache.residentBlocks(), 0u);
    EXPECT_EQ(cache.lookup(42), stateNotPresent);
}

TEST(InfiniteCacheTest, SetInstallsAndReports)
{
    InfiniteCache cache(64);
    EXPECT_EQ(cache.set(10, 1).state, stateNotPresent); // no victim
    EXPECT_EQ(cache.lookup(10), 1);
    EXPECT_NE(cache.lookup(10), stateNotPresent);
    EXPECT_EQ(cache.residentBlocks(), 1u);
}

TEST(InfiniteCacheTest, SetUpdatesInPlace)
{
    InfiniteCache cache(64);
    cache.set(10, 1);
    cache.set(10, 2);
    EXPECT_EQ(cache.lookup(10), 2);
    EXPECT_EQ(cache.residentBlocks(), 1u); // not newly installed
}

TEST(InfiniteCacheTest, ReservedStateRejected)
{
    InfiniteCache cache(64);
    EXPECT_THROW(cache.set(10, stateNotPresent), LogicError);
}

TEST(InfiniteCacheTest, InvalidateReturnsOldState)
{
    InfiniteCache cache(64);
    cache.set(10, 3);
    EXPECT_EQ(cache.invalidate(10), 3);
    EXPECT_EQ(cache.lookup(10), stateNotPresent);
    EXPECT_EQ(cache.invalidate(10), stateNotPresent);
}

TEST(InfiniteCacheTest, NeverEvicts)
{
    InfiniteCache cache(100'000);
    for (BlockNum block = 0; block < 100'000; ++block)
        ASSERT_EQ(cache.set(block, 1).state, stateNotPresent);
    EXPECT_EQ(cache.residentBlocks(), 100'000u);
    EXPECT_NE(cache.lookup(0), stateNotPresent);
    EXPECT_NE(cache.lookup(99'999), stateNotPresent);
}

TEST(InfiniteCacheTest, ClearRemovesEverything)
{
    InfiniteCache cache(64);
    cache.set(1, 1);
    cache.set(2, 2);
    cache.clear();
    EXPECT_EQ(cache.residentBlocks(), 0u);
    EXPECT_EQ(cache.lookup(1), stateNotPresent);
}

TEST(InfiniteCacheTest, ForEachVisitsAll)
{
    InfiniteCache cache(64);
    cache.set(5, 1);
    cache.set(6, 2);
    cache.set(7, 1);
    std::set<BlockNum> seen;
    unsigned dirty = 0;
    cache.forEach([&](BlockNum block, CacheBlockState state) {
        seen.insert(block);
        dirty += state == 2 ? 1 : 0;
    });
    EXPECT_EQ(seen, (std::set<BlockNum>{5, 6, 7}));
    EXPECT_EQ(dirty, 1u);
}

TEST(InfiniteCacheTest, DenseBackendMirrorsSparseSemantics)
{
    InfiniteCache cache(64);
    EXPECT_EQ(cache.residentBlocks(), 0u);

    cache.set(10, 1);
    cache.set(10, 2); // update, not a new install
    EXPECT_EQ(cache.lookup(10), 2);
    EXPECT_NE(cache.lookup(10), stateNotPresent);
    EXPECT_EQ(cache.lookup(11), stateNotPresent);
    EXPECT_EQ(cache.residentBlocks(), 1u);

    EXPECT_EQ(cache.invalidate(10), 2);
    EXPECT_EQ(cache.invalidate(10), stateNotPresent);
    EXPECT_EQ(cache.residentBlocks(), 0u);

    cache.set(5, 1);
    cache.set(63, 2);
    std::set<BlockNum> seen;
    cache.forEach([&](BlockNum block, CacheBlockState) {
        seen.insert(block);
    });
    EXPECT_EQ(seen, (std::set<BlockNum>{5, 63}));

    cache.clear();
    EXPECT_EQ(cache.residentBlocks(), 0u);
    // The arena survives the clear; blocks outside it are rejected.
    cache.set(63, 1);
    EXPECT_EQ(cache.residentBlocks(), 1u);
    EXPECT_THROW(cache.set(64, 1), LogicError);
}

} // namespace
} // namespace dirsim
