/** @file Unit tests for directory/full_map.hh. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "directory/full_map.hh"

namespace dirsim
{
namespace
{

TEST(FullMapTest, EntryCreatedCleanAndEmpty)
{
    // Every block of the arena starts uncached and clean.
    FullMapDirectory dir(4, 128);
    EXPECT_FALSE(dir.dirty(100));
    EXPECT_EQ(dir.sharerCount(100), 0u);
    EXPECT_TRUE(dir.sharerSnapshot(100).empty());
}

TEST(FullMapTest, FindWithoutCreate)
{
    // Queries leave a block's state untouched.
    FullMapDirectory dir(4, 8);
    EXPECT_FALSE(dir.isSharer(5, 1));
    EXPECT_EQ(dir.sharerCount(5), 0u);
    dir.addSharer(5, 1);
    EXPECT_TRUE(dir.isSharer(5, 1));
    EXPECT_EQ(dir.sharerCount(6), 0u);
}

TEST(FullMapTest, EntryPersists)
{
    FullMapDirectory dir(4, 8);
    dir.addSharer(7, 2);
    dir.setDirty(7, true);
    EXPECT_TRUE(dir.dirty(7));
    EXPECT_TRUE(dir.isSharer(7, 2));
    EXPECT_EQ(dir.sharerCount(7), 1u);
}

TEST(FullMapTest, DenseArenaMirrorsSparseSemantics)
{
    FullMapDirectory dir(4, 8);
    dir.addSharer(3, 1);
    EXPECT_TRUE(dir.isSharer(3, 1));
    EXPECT_EQ(dir.sharerCount(3), 1u);
    EXPECT_FALSE(dir.dirty(3));
    dir.setDirty(3, true);
    EXPECT_TRUE(dir.dirty(3));

    CacheIdList sharers;
    dir.appendSharers(3, sharers);
    ASSERT_EQ(sharers.size(), 1u);
    EXPECT_EQ(sharers.front(), 1u);
    EXPECT_EQ(dir.sharerSnapshot(3).toVector(),
              (std::vector<CacheId>{1}));

    dir.removeSharer(3, 1);
    EXPECT_FALSE(dir.isSharer(3, 1));
    EXPECT_EQ(dir.sharerCount(3), 0u);
    // The dirty bit is the protocol's to clear.
    EXPECT_TRUE(dir.dirty(3));

    // Blocks outside the arena are rejected.
    EXPECT_THROW(dir.addSharer(8, 0), LogicError);
    EXPECT_THROW(dir.setDirty(8, true), LogicError);
}

TEST(FullMapTest, BlockKeyedAccessorsWorkSparse)
{
    FullMapDirectory dir(4, 16);
    EXPECT_FALSE(dir.isSharer(9, 2));
    EXPECT_EQ(dir.sharerCount(9), 0u);
    EXPECT_FALSE(dir.dirty(9));

    dir.addSharer(9, 2);
    dir.addSharer(9, 0);
    dir.setDirty(9, true);
    EXPECT_EQ(dir.sharerCount(9), 2u);
    EXPECT_TRUE(dir.dirty(9));

    CacheIdList sharers;
    dir.appendSharers(9, sharers);
    EXPECT_EQ(std::vector<CacheId>(sharers.begin(), sharers.end()),
              (std::vector<CacheId>{0, 2})); // ascending

    dir.removeSharer(9, 0);
    EXPECT_EQ(dir.sharerSnapshot(9).toVector(),
              (std::vector<CacheId>{2}));
}

TEST(FullMapTest, RejectsZeroCaches)
{
    EXPECT_THROW(FullMapDirectory(0, 8), UsageError);
}

TEST(FullMapTest, NumCaches)
{
    FullMapDirectory dir(16, 4);
    EXPECT_EQ(dir.numCaches(), 16u);
    EXPECT_EQ(dir.sharerSnapshot(0).numCaches(), 16u);
}

} // namespace
} // namespace dirsim
