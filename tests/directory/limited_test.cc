/** @file Unit tests for directory/limited.hh (Dir_i entries). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "directory/limited.hh"

namespace dirsim
{
namespace
{

TEST(LimitedEntryTest, RecordsUpToBudget)
{
    LimitedEntry entry(2, /* broadcast */ true);
    EXPECT_EQ(entry.addSharer(1), LimitedAddOutcome::Recorded);
    EXPECT_EQ(entry.addSharer(2), LimitedAddOutcome::Recorded);
    EXPECT_EQ(entry.pointerCount(), 2u);
    EXPECT_TRUE(entry.pointsTo(1));
    EXPECT_TRUE(entry.pointsTo(2));
    EXPECT_FALSE(entry.broadcastRequired());
}

TEST(LimitedEntryTest, DuplicateAddIsRecorded)
{
    LimitedEntry entry(2, true);
    entry.addSharer(1);
    EXPECT_EQ(entry.addSharer(1), LimitedAddOutcome::Recorded);
    EXPECT_EQ(entry.pointerCount(), 1u);
}

TEST(LimitedEntryTest, OverflowSetsBroadcastBit)
{
    LimitedEntry entry(1, true);
    entry.addSharer(1);
    EXPECT_EQ(entry.addSharer(2), LimitedAddOutcome::BroadcastSet);
    EXPECT_TRUE(entry.broadcastRequired());
    // Pointers are meaningless in broadcast mode.
    EXPECT_EQ(entry.pointerCount(), 0u);
    EXPECT_EQ(entry.addSharer(3), LimitedAddOutcome::AlreadyBroadcast);
}

TEST(LimitedEntryTest, NoBroadcastOverflowNamesOldestVictim)
{
    LimitedEntry entry(2, false);
    entry.addSharer(1);
    entry.addSharer(2);
    CacheId victim = invalidCacheId;
    EXPECT_EQ(entry.addSharer(3, &victim),
              LimitedAddOutcome::EvictionRequired);
    EXPECT_EQ(victim, 1u); // FIFO: oldest pointer
    // Entry unchanged until the caller removes the victim.
    EXPECT_TRUE(entry.pointsTo(1));
    entry.removeSharer(victim);
    EXPECT_EQ(entry.addSharer(3, &victim),
              LimitedAddOutcome::Recorded);
    EXPECT_TRUE(entry.pointsTo(2));
    EXPECT_TRUE(entry.pointsTo(3));
}

TEST(LimitedEntryTest, NoBroadcastOverflowWithoutVictimPanics)
{
    LimitedEntry entry(1, false);
    entry.addSharer(1);
    EXPECT_THROW(entry.addSharer(2), LogicError);
}

TEST(LimitedEntryTest, RemoveSharerKeepsOrder)
{
    LimitedEntry entry(3, false);
    entry.addSharer(5);
    entry.addSharer(6);
    entry.addSharer(7);
    entry.removeSharer(6);
    const CacheIdSpan ptrs = entry.pointerList();
    EXPECT_EQ(std::vector<CacheId>(ptrs.begin(), ptrs.end()),
              (std::vector<CacheId>{5, 7}));
}

TEST(LimitedEntryTest, ResetClearsEverything)
{
    LimitedEntry entry(1, true);
    entry.addSharer(1);
    entry.addSharer(2); // broadcast
    entry.dirty = true;
    entry.reset();
    EXPECT_FALSE(entry.broadcastRequired());
    EXPECT_FALSE(entry.dirty);
    EXPECT_EQ(entry.pointerCount(), 0u);
    EXPECT_EQ(entry.addSharer(3), LimitedAddOutcome::Recorded);
}

TEST(LimitedEntryTest, ZeroPointersRejected)
{
    EXPECT_THROW(LimitedEntry(0, true), UsageError);
    EXPECT_THROW(LimitedEntry(0, false), UsageError);
}

TEST(LimitedDirectoryTest, EntriesInheritConfiguration)
{
    LimitedDirectory dir(3, true, 64);
    EXPECT_EQ(dir.pointerBudget(), 3u);
    EXPECT_TRUE(dir.broadcastAllowed());
    LimitedEntry &entry = dir.entry(42);
    EXPECT_EQ(entry.capacity(), 3u);
    EXPECT_TRUE(entry.broadcastAllowed());
}

TEST(LimitedDirectoryTest, FindWithoutCreate)
{
    LimitedDirectory dir(1, false, 16);
    EXPECT_EQ(dir.find(16), nullptr); // outside the directory
    ASSERT_NE(dir.find(9), nullptr);
    EXPECT_EQ(dir.find(9)->pointerCount(), 0u);
    dir.entry(9).addSharer(4);
    EXPECT_TRUE(dir.find(9)->pointsTo(4));
    EXPECT_THROW(dir.entry(16), LogicError);
}

TEST(LimitedDirectoryTest, RejectsZeroBudget)
{
    EXPECT_THROW(LimitedDirectory(0, true, 4), UsageError);
}

} // namespace
} // namespace dirsim
