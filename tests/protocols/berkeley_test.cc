/** @file Scenario tests for the Berkeley Ownership protocol. */

#include <gtest/gtest.h>

#include "protocols/berkeley.hh"

namespace dirsim
{
namespace
{

constexpr BlockNum B = 600;

/** Block indices the scenarios touch (all below 1024). */
constexpr BlockSpace blocks{1024};

TEST(BerkeleyTest, OwnerSuppliesWithoutMemoryUpdate)
{
    Berkeley protocol(4, blocks);
    protocol.write(0, B, true); // owned-exclusive in 0
    protocol.read(1, B, false);
    EXPECT_EQ(protocol.events().count(EventType::RmBlkDrty), 1u);
    // Cache-to-cache transfer, no write-back category traffic.
    EXPECT_EQ(protocol.ops().cacheSupplies, 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 0u);
    // Owner keeps ownership in the shared state.
    EXPECT_EQ(protocol.cacheState(0, B), Berkeley::stOwnedShared);
    EXPECT_EQ(protocol.cacheState(1, B), Berkeley::stValid);
}

TEST(BerkeleyTest, ExclusiveOwnerWritesForFree)
{
    Berkeley protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WhBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().busTransactions, 0u);
    // Crucially, no directory probe either (the Berkeley advantage
    // the paper models by zeroing Dir0B's directory cost).
    EXPECT_EQ(protocol.ops().dirChecks, 0u);
}

TEST(BerkeleyTest, SharedOwnerMustReclaimExclusivity)
{
    Berkeley protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.read(1, B, false); // owner demoted to owned-shared
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WhBlkCln), 1u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 1u);
    EXPECT_EQ(protocol.cacheState(0, B), Berkeley::stOwnedExcl);
    EXPECT_EQ(protocol.cacheState(1, B), stateNotPresent);
}

TEST(BerkeleyTest, ValidHolderWriteBroadcasts)
{
    Berkeley protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.ops().broadcastInvals, 1u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    EXPECT_EQ(protocol.cacheState(1, B), Berkeley::stOwnedExcl);
}

TEST(BerkeleyTest, WriteMissTakesOwnership)
{
    Berkeley protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WmBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().cacheSupplies, 1u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 1u);
    EXPECT_EQ(protocol.cacheState(1, B), Berkeley::stOwnedExcl);
    EXPECT_EQ(protocol.cacheState(0, B), stateNotPresent);
}

TEST(BerkeleyTest, CleanMissServedByMemory)
{
    Berkeley protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    EXPECT_EQ(protocol.ops().memSupplies, 1u);
    EXPECT_EQ(protocol.ops().cacheSupplies, 0u);
}

TEST(BerkeleyTest, NoDirectoryChecksEver)
{
    Berkeley protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(0, B, false);
    protocol.write(1, B, false);
    protocol.read(2, B, false);
    EXPECT_EQ(protocol.ops().dirChecks, 0u);
}

TEST(BerkeleyTest, SingleOwnerInvariant)
{
    Berkeley protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    unsigned owners = 0;
    for (CacheId c = 0; c < 4; ++c)
        owners += protocol.isDirtyState(protocol.cacheState(c, B));
    EXPECT_EQ(owners, 1u);
    protocol.checkAllInvariants();
}

TEST(BerkeleyTest, InvariantsAcrossScenario)
{
    Berkeley protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(2, B, false);
    protocol.checkAllInvariants();
    protocol.read(3, B, false);
    protocol.write(0, B, false);
    protocol.checkAllInvariants();
}

} // namespace
} // namespace dirsim
