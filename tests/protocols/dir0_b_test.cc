/** @file Scenario tests for the Dir0B (Archibald & Baer) protocol. */

#include <gtest/gtest.h>

#include "protocols/dir0_b.hh"

namespace dirsim
{
namespace
{

constexpr BlockNum B = 300;

/** Block indices the scenarios touch (all below 1024). */
constexpr BlockSpace blocks{1024};

TEST(Dir0BTest, DirectoryStateProgression)
{
    Dir0B protocol(4, blocks);
    EXPECT_EQ(protocol.directory().state(B), TwoBitState::NotCached);
    protocol.read(0, B, true);
    EXPECT_EQ(protocol.directory().state(B), TwoBitState::CleanOne);
    protocol.read(1, B, false);
    EXPECT_EQ(protocol.directory().state(B), TwoBitState::CleanMany);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.directory().state(B), TwoBitState::DirtyOne);
}

TEST(Dir0BTest, CleanOneWriteSkipsBroadcast)
{
    // The scheme's optimization: "block clean in exactly one cache"
    // obviates the broadcast when its sole holder writes.
    Dir0B protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WhBlkCln), 1u);
    EXPECT_EQ(protocol.ops().dirChecks, 1u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 0u);
}

TEST(Dir0BTest, CleanManyWriteBroadcasts)
{
    Dir0B protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    protocol.write(0, B, false);
    // One broadcast removes every other copy at unit cost.
    EXPECT_EQ(protocol.ops().broadcastInvals, 1u);
    EXPECT_EQ(protocol.ops().invalMsgs, 0u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    EXPECT_EQ(protocol.cleanWriteHolders().count(2), 1u);
}

TEST(Dir0BTest, ReadMissOnDirtyBroadcastsWriteBackRequest)
{
    Dir0B protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.read(1, B, false);

    EXPECT_EQ(protocol.events().count(EventType::RmBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 1u);
    EXPECT_EQ(protocol.cacheState(0, B), Dir0B::stClean);
    EXPECT_EQ(protocol.cacheState(1, B), Dir0B::stClean);
    EXPECT_EQ(protocol.directory().state(B), TwoBitState::CleanMany);
}

TEST(Dir0BTest, WriteMissOnDirtyFlushesAndInvalidates)
{
    Dir0B protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WmBlkDrty), 1u);
    EXPECT_EQ(protocol.cacheState(0, B), stateNotPresent);
    EXPECT_EQ(protocol.cacheState(1, B), Dir0B::stDirty);
    EXPECT_EQ(protocol.directory().state(B), TwoBitState::DirtyOne);
}

TEST(Dir0BTest, WriteMissOnCleanManyBroadcasts)
{
    Dir0B protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(2, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WmBlkCln), 1u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 1u);
    EXPECT_EQ(protocol.ops().memSupplies, 2u); // fill for cache 1 + wm
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    EXPECT_EQ(protocol.cleanWriteHolders().count(2), 1u);
}

TEST(Dir0BTest, WriteHitOnDirtyNeedsNoDirectory)
{
    Dir0B protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WhBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().dirChecks, 0u);
    EXPECT_EQ(protocol.ops().busTransactions, 0u);
}

TEST(Dir0BTest, NoDirectedInvalidatesEver)
{
    // Dir0B keeps no pointers, so it can never send a directed
    // invalidate.
    Dir0B protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(0, B, false);
    protocol.write(1, B, false);
    protocol.read(2, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 0u);
}

TEST(Dir0BTest, CleanOneAfterInvalidationRoundTrip)
{
    Dir0B protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(0, B, false); // back to a single (dirty) copy
    protocol.read(1, B, false);  // flush: clean-many
    protocol.write(1, B, false); // broadcast again
    EXPECT_EQ(protocol.directory().state(B), TwoBitState::DirtyOne);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    protocol.checkAllInvariants();
}

TEST(Dir0BTest, InvariantsAcrossScenario)
{
    Dir0B protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.checkAllInvariants();
    protocol.read(1, B, false);
    protocol.checkAllInvariants();
    protocol.write(2, B, false);
    protocol.checkAllInvariants();
    protocol.read(3, B, false);
    protocol.checkAllInvariants();
}

} // namespace
} // namespace dirsim
