/** @file Unit tests for directory/tang.hh (duplicate-tag directory). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "directory/full_map.hh"
#include "directory/tang.hh"

namespace dirsim
{
namespace
{

TEST(TangTest, EmptySearch)
{
    TangDirectory dir(4, 16);
    const auto result = dir.search(10);
    EXPECT_TRUE(result.holders.empty());
    EXPECT_FALSE(result.dirty());
}

TEST(TangTest, FillAndSearch)
{
    TangDirectory dir(4, 16);
    dir.recordFill(1, 10);
    dir.recordFill(3, 10);
    const auto result = dir.search(10);
    EXPECT_EQ(result.holders.count(), 2u);
    EXPECT_TRUE(result.holders.contains(1));
    EXPECT_TRUE(result.holders.contains(3));
    EXPECT_FALSE(result.dirty());
}

TEST(TangTest, DirtyTracking)
{
    TangDirectory dir(4, 16);
    dir.recordFill(2, 10);
    dir.recordDirty(2, 10);
    const auto result = dir.search(10);
    EXPECT_TRUE(result.dirty());
    EXPECT_EQ(result.dirtyOwner, 2u);
    dir.recordClean(2, 10);
    EXPECT_FALSE(dir.search(10).dirty());
}

TEST(TangTest, InvalidateRemoves)
{
    TangDirectory dir(4, 16);
    dir.recordFill(0, 10);
    dir.recordFill(1, 10);
    dir.recordInvalidate(0, 10);
    const auto result = dir.search(10);
    EXPECT_EQ(result.holders.count(), 1u);
    EXPECT_TRUE(result.holders.contains(1));
}

TEST(TangTest, DirtyWithoutFillPanics)
{
    TangDirectory dir(4, 16);
    EXPECT_THROW(dir.recordDirty(0, 10), LogicError);
    EXPECT_THROW(dir.recordClean(0, 10), LogicError);
}

TEST(TangTest, TwoDirtyHoldersPanicsOnSearch)
{
    TangDirectory dir(4, 16);
    dir.recordFill(0, 10);
    dir.recordFill(1, 10);
    dir.recordDirty(0, 10);
    dir.recordDirty(1, 10);
    EXPECT_THROW(dir.search(10), LogicError);
}

TEST(TangTest, SearchCostIsAllCaches)
{
    // The organizational drawback: every duplicate directory is
    // searched, unlike the directly-indexed full map.
    TangDirectory dir(12, 16);
    EXPECT_EQ(dir.searchCost(), 12u);
}

TEST(TangTest, EquivalentToFullMapUnderRandomOps)
{
    // Tang's organization holds the same information as Censier &
    // Feautrier's full map: drive both with the same random
    // fill/dirty/invalidate stream and compare.
    const unsigned caches = 6;
    TangDirectory tang(caches, 32);
    FullMapDirectory full(caches, 32);
    Rng rng(77);

    for (int step = 0; step < 5000; ++step) {
        const auto block = static_cast<BlockNum>(rng.below(32));
        const auto cache = static_cast<CacheId>(rng.below(caches));
        switch (rng.below(3)) {
          case 0: // fill clean
            // Keep the single-dirty invariant in the reference model.
            if (full.dirty(block))
                break;
            tang.recordFill(cache, block);
            full.addSharer(block, cache);
            break;
          case 1: // make dirty (only legal for a sole holder)
            if (full.sharerCount(block) == 1
                && full.isSharer(block, cache) && !full.dirty(block)) {
                tang.recordDirty(cache, block);
                full.setDirty(block, true);
            }
            break;
          default: // invalidate
            if (full.isSharer(block, cache)) {
                tang.recordInvalidate(cache, block);
                full.removeSharer(block, cache);
                full.setDirty(block, false);
            }
            break;
        }
        const auto result = tang.search(block);
        ASSERT_EQ(result.holders, full.sharerSnapshot(block))
            << "step " << step;
        ASSERT_EQ(result.dirty(), full.dirty(block)) << "step " << step;
    }
}

TEST(TangTest, RejectsZeroCaches)
{
    EXPECT_THROW(TangDirectory(0, 16), UsageError);
}

} // namespace
} // namespace dirsim
