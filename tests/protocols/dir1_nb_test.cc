/** @file Scenario tests for the Dir1NB protocol. */

#include <gtest/gtest.h>

#include "protocols/dir1_nb.hh"

namespace dirsim
{
namespace
{

constexpr BlockNum B = 100;

/** Block indices the scenarios touch (all below 1024). */
constexpr BlockSpace blocks{1024};

TEST(Dir1NBTest, FirstReferenceInstallsWithoutTraffic)
{
    Dir1NB protocol(4, blocks);
    protocol.read(0, B, /* first_ref */ true);
    EXPECT_EQ(protocol.events().count(EventType::RmFirstRef), 1u);
    EXPECT_EQ(protocol.events().count(EventType::RdMiss), 0u);
    EXPECT_EQ(protocol.cacheState(0, B), Dir1NB::stClean);
    EXPECT_EQ(protocol.ops().memSupplies, 0u);
    EXPECT_EQ(protocol.ops().busTransactions, 0u);
}

TEST(Dir1NBTest, RereadHits)
{
    Dir1NB protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::RdHit), 1u);
    EXPECT_EQ(protocol.ops().busTransactions, 0u);
}

TEST(Dir1NBTest, SecondReaderDisplacesFirst)
{
    Dir1NB protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);

    EXPECT_EQ(protocol.events().count(EventType::RdMiss), 1u);
    EXPECT_EQ(protocol.events().count(EventType::RmBlkCln), 1u);
    // The single-copy rule: cache 0 lost its copy.
    EXPECT_EQ(protocol.cacheState(0, B), stateNotPresent);
    EXPECT_EQ(protocol.cacheState(1, B), Dir1NB::stClean);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    // One directed invalidate, data from memory.
    EXPECT_EQ(protocol.ops().invalMsgs, 1u);
    EXPECT_EQ(protocol.ops().memSupplies, 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 0u);
}

TEST(Dir1NBTest, WriteHitOnCleanGoesDirtySilently)
{
    Dir1NB protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WrtHit), 1u);
    EXPECT_EQ(protocol.events().count(EventType::WhBlkCln), 1u);
    EXPECT_EQ(protocol.cacheState(0, B), Dir1NB::stDirty);
    // No directory interaction needed.
    EXPECT_EQ(protocol.ops().busTransactions, 0u);
    EXPECT_EQ(protocol.ops().dirChecks, 0u);
}

TEST(Dir1NBTest, WriteHitOnDirtyIsFree)
{
    Dir1NB protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WhBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().busTransactions, 0u);
}

TEST(Dir1NBTest, ReadMissOnDirtyBlockForcesWriteBack)
{
    Dir1NB protocol(4, blocks);
    protocol.write(0, B, true); // 0 holds dirty
    protocol.read(1, B, false);

    EXPECT_EQ(protocol.events().count(EventType::RmBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 1u);
    EXPECT_EQ(protocol.ops().invalMsgs, 1u);
    EXPECT_EQ(protocol.ops().memSupplies, 0u);
    EXPECT_EQ(protocol.cacheState(0, B), stateNotPresent);
    EXPECT_EQ(protocol.cacheState(1, B), Dir1NB::stClean);
}

TEST(Dir1NBTest, WriteMissOnDirtyBlock)
{
    Dir1NB protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WmBlkDrty), 1u);
    EXPECT_EQ(protocol.cacheState(1, B), Dir1NB::stDirty);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
}

TEST(Dir1NBTest, SpinLockPingPong)
{
    // The Section 5.2 pathology: two spinners alternate reads and
    // every read misses.
    Dir1NB protocol(4, blocks);
    protocol.read(0, B, true);
    for (int round = 0; round < 10; ++round) {
        protocol.read(1, B, false);
        protocol.read(0, B, false);
    }
    EXPECT_EQ(protocol.events().count(EventType::RdMiss), 20u);
    EXPECT_EQ(protocol.events().count(EventType::RdHit), 0u);
    EXPECT_EQ(protocol.ops().invalMsgs, 20u);
}

TEST(Dir1NBTest, DirectoryPointerTracksHolder)
{
    Dir1NB protocol(4, blocks);
    protocol.read(0, B, true);
    EXPECT_TRUE(protocol.directory().entry(B).pointsTo(0));
    protocol.read(2, B, false);
    EXPECT_TRUE(protocol.directory().entry(B).pointsTo(2));
    EXPECT_FALSE(protocol.directory().entry(B).pointsTo(0));
}

TEST(Dir1NBTest, DirectoryDirtyBitTracksState)
{
    // The entry's dirty bit is the holder's cache state: the pointer
    // names the holder, whose state says whether memory is stale.
    Dir1NB protocol(4, blocks);
    protocol.read(0, B, true);
    EXPECT_EQ(protocol.cacheState(0, B), Dir1NB::stClean);
    protocol.write(0, B, false);
    EXPECT_TRUE(protocol.directory().entry(B).pointsTo(0));
    EXPECT_EQ(protocol.cacheState(0, B), Dir1NB::stDirty);
}

TEST(Dir1NBTest, InvariantsHoldThroughScenario)
{
    Dir1NB protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.checkAllInvariants();
    protocol.write(0, B, false);
    protocol.checkAllInvariants();
    protocol.read(1, B, false);
    protocol.checkAllInvariants();
    protocol.write(2, B, false);
    protocol.checkAllInvariants();
    EXPECT_LE(protocol.holders(B).count(), 1u);
}

TEST(Dir1NBTest, IndependentBlocks)
{
    Dir1NB protocol(4, blocks);
    protocol.read(0, 1, true);
    protocol.read(1, 2, true);
    EXPECT_EQ(protocol.cacheState(0, 1), Dir1NB::stClean);
    EXPECT_EQ(protocol.cacheState(1, 2), Dir1NB::stClean);
    EXPECT_EQ(protocol.events().count(EventType::RmFirstRef), 2u);
}

TEST(Dir1NBTest, Name)
{
    EXPECT_EQ(Dir1NB(2, blocks).name(), "Dir1NB");
}

} // namespace
} // namespace dirsim
