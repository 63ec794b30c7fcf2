/** @file Scenario tests for the Dragon update protocol. */

#include <gtest/gtest.h>

#include "protocols/dragon.hh"

namespace dirsim
{
namespace
{

constexpr BlockNum B = 500;

/** Block indices the scenarios touch (all below 1024). */
constexpr BlockSpace blocks{1024};

TEST(DragonTest, FirstReadIsExclusive)
{
    Dragon protocol(4, blocks);
    protocol.read(0, B, true);
    EXPECT_EQ(protocol.cacheState(0, B), Dragon::stExclusive);
}

TEST(DragonTest, SecondReaderDemotesToShared)
{
    Dragon protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    EXPECT_EQ(protocol.cacheState(0, B), Dragon::stSharedClean);
    EXPECT_EQ(protocol.cacheState(1, B), Dragon::stSharedClean);
    // The block came from the holding cache, not memory.
    EXPECT_EQ(protocol.ops().cacheSupplies, 1u);
    EXPECT_EQ(protocol.ops().memSupplies, 0u);
}

TEST(DragonTest, NothingIsEverInvalidated)
{
    Dragon protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    protocol.write(0, B, false);
    protocol.write(1, B, false);
    // All copies remain resident forever (infinite caches).
    EXPECT_EQ(protocol.holders(B).count(), 3u);
    EXPECT_EQ(protocol.ops().invalMsgs, 0u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 0u);
}

TEST(DragonTest, SharedWriteHitDistributesUpdate)
{
    Dragon protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(0, B, false);

    EXPECT_EQ(protocol.events().count(EventType::WhDistrib), 1u);
    EXPECT_EQ(protocol.ops().writeUpdates, 1u);
    // Writer owns; the other copy is updated in place.
    EXPECT_EQ(protocol.cacheState(0, B), Dragon::stSharedDirty);
    EXPECT_EQ(protocol.cacheState(1, B), Dragon::stSharedClean);
}

TEST(DragonTest, LocalWriteHitIsFree)
{
    Dragon protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WhLocal), 1u);
    EXPECT_EQ(protocol.ops().writeUpdates, 0u);
    EXPECT_EQ(protocol.ops().busTransactions, 0u);
    EXPECT_EQ(protocol.cacheState(0, B), Dragon::stDirty);
}

TEST(DragonTest, OwnershipMigratesBetweenWriters)
{
    Dragon protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(0, B, false);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.cacheState(1, B), Dragon::stSharedDirty);
    EXPECT_EQ(protocol.cacheState(0, B), Dragon::stSharedClean);
    protocol.checkAllInvariants();
}

TEST(DragonTest, ReadMissOnDirtySuppliedByOwnerWithoutWriteBack)
{
    Dragon protocol(4, blocks);
    protocol.write(0, B, true); // Dirty in 0
    protocol.read(1, B, false);
    EXPECT_EQ(protocol.events().count(EventType::RmBlkDrty), 1u);
    // Cache-to-cache supply; the owner retains (shared) ownership.
    EXPECT_EQ(protocol.ops().cacheSupplies, 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 0u);
    EXPECT_EQ(protocol.cacheState(0, B), Dragon::stSharedDirty);
    EXPECT_EQ(protocol.cacheState(1, B), Dragon::stSharedClean);
}

TEST(DragonTest, WriteMissToSharedBlockUpdatesAll)
{
    Dragon protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WmBlkCln), 1u);
    EXPECT_EQ(protocol.ops().cacheSupplies, 1u);
    EXPECT_EQ(protocol.ops().writeUpdates, 1u);
    EXPECT_EQ(protocol.cacheState(1, B), Dragon::stSharedDirty);
    EXPECT_EQ(protocol.cacheState(0, B), Dragon::stSharedClean);
}

TEST(DragonTest, InfiniteCacheMissRateIsNative)
{
    // Once loaded, a block never misses again, no matter how the
    // other caches write to it.
    Dragon protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    for (int i = 0; i < 5; ++i) {
        protocol.write(0, B, false);
        protocol.read(1, B, false);
    }
    EXPECT_EQ(protocol.events().count(EventType::RdMiss), 1u);
    EXPECT_EQ(protocol.events().count(EventType::RdHit), 5u);
}

TEST(DragonTest, SingleWriterInvariantOnOwnership)
{
    Dragon protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    protocol.write(2, B, false);
    // Exactly one owner (shared-dirty) at any time.
    unsigned owners = 0;
    for (CacheId c = 0; c < 4; ++c)
        owners += protocol.isDirtyState(protocol.cacheState(c, B));
    EXPECT_EQ(owners, 1u);
    protocol.checkAllInvariants();
}

} // namespace
} // namespace dirsim
