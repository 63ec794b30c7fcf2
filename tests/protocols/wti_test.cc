/** @file Scenario tests for the WTI snoopy protocol. */

#include <gtest/gtest.h>

#include "protocols/wti.hh"

namespace dirsim
{
namespace
{

constexpr BlockNum B = 400;

/** Block indices the scenarios touch (all below 1024). */
constexpr BlockSpace blocks{1024};

TEST(WTITest, EveryWriteGoesToMemory)
{
    WTI protocol(4, blocks);
    protocol.write(0, B, true);   // first ref: fetch uncosted
    protocol.write(0, B, false);  // hit
    protocol.write(0, B, false);  // hit
    EXPECT_EQ(protocol.ops().writeThroughs, 3u);
}

TEST(WTITest, NoDirtyStateExists)
{
    WTI protocol(4, blocks);
    protocol.write(0, B, true);
    EXPECT_EQ(protocol.cacheState(0, B), WTI::stValid);
    EXPECT_FALSE(protocol.isDirtyState(protocol.cacheState(0, B)));
}

TEST(WTITest, MissesAlwaysServedByMemory)
{
    WTI protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.read(1, B, false);
    // Memory is current under write-through: no write-back, no
    // cache-to-cache supply.
    EXPECT_EQ(protocol.ops().memSupplies, 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 0u);
    EXPECT_EQ(protocol.ops().cacheSupplies, 0u);
}

TEST(WTITest, SnoopersInvalidateOnWrite)
{
    WTI protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    protocol.write(0, B, false);
    // Snooping invalidation is free (no explicit messages)...
    EXPECT_EQ(protocol.ops().invalMsgs, 0u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 0u);
    // ...but the copies are gone.
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    EXPECT_TRUE(protocol.holders(B).contains(0));
}

TEST(WTITest, WriteMissAllocatesAndWritesThrough)
{
    WTI protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WrtMiss), 1u);
    EXPECT_EQ(protocol.ops().memSupplies, 1u);
    EXPECT_EQ(protocol.ops().writeThroughs, 1u);
    // Fetch + write-through are two bus transactions.
    EXPECT_EQ(protocol.ops().busTransactions, 2u);
    EXPECT_TRUE(protocol.holders(B).contains(1));
    EXPECT_FALSE(protocol.holders(B).contains(0));
}

TEST(WTITest, FirstRefWriteStillWritesThrough)
{
    // Write-policy traffic is not a first-reference miss cost: the
    // word still travels to memory.
    WTI protocol(4, blocks);
    protocol.write(0, B, true);
    EXPECT_EQ(protocol.ops().writeThroughs, 1u);
    EXPECT_EQ(protocol.ops().memSupplies, 0u); // the fetch is uncosted
}

TEST(WTITest, ReadSharingIsCheap)
{
    WTI protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(0, B, false);
    protocol.read(1, B, false);
    EXPECT_EQ(protocol.events().count(EventType::RdHit), 2u);
    EXPECT_EQ(protocol.holders(B).count(), 2u);
}

TEST(WTITest, RmBlkDrtyNeverOccurs)
{
    WTI protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.write(0, B, false);
    protocol.read(1, B, false);
    EXPECT_EQ(protocol.events().count(EventType::RmBlkDrty), 0u);
    EXPECT_EQ(protocol.events().count(EventType::RmBlkCln), 1u);
}

TEST(WTITest, InvariantsAcrossScenario)
{
    WTI protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(2, B, false);
    protocol.checkAllInvariants();
    protocol.read(3, B, false);
    protocol.write(3, B, false);
    protocol.checkAllInvariants();
}

} // namespace
} // namespace dirsim
