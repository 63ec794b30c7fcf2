/** @file Scenario tests for the Yen & Fu single-bit scheme. */

#include <gtest/gtest.h>

#include "protocols/yen_fu.hh"

namespace dirsim
{
namespace
{

constexpr BlockNum B = 800;

/** Block indices the scenarios touch (all below 1024). */
constexpr BlockSpace blocks{1024};

TEST(YenFuTest, SoleCopyCarriesSingleBit)
{
    YenFu protocol(4, blocks);
    protocol.read(0, B, true);
    EXPECT_EQ(protocol.cacheState(0, B), YenFu::stCleanSingle);
}

TEST(YenFuTest, SecondCopyClearsSingleBitWithASignal)
{
    YenFu protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    EXPECT_EQ(protocol.cacheState(0, B), YenFu::stClean);
    EXPECT_EQ(protocol.cacheState(1, B), YenFu::stClean);
    // The maintenance signal is the scheme's extra bus traffic.
    EXPECT_EQ(protocol.ops().writeUpdates, 1u);
}

TEST(YenFuTest, SingleBitWriteSkipsDirectoryWait)
{
    YenFu protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WhBlkCln), 1u);
    // No directory check (the latency saving)...
    EXPECT_EQ(protocol.ops().dirChecks, 0u);
    // ...but the background notification is still a bus access: "the
    // scheme saves central directory accesses, but does not reduce
    // the number of bus accesses".
    EXPECT_EQ(protocol.ops().writeUpdates, 1u);
    EXPECT_EQ(protocol.ops().busTransactions, 1u);
    EXPECT_EQ(protocol.cacheState(0, B), YenFu::stDirty);
}

TEST(YenFuTest, SharedWriteBehavesLikeCensierFeautrier)
{
    YenFu protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.ops().dirChecks, 1u);
    EXPECT_EQ(protocol.ops().invalMsgs, 2u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
}

TEST(YenFuTest, SameBusAccessesAsFullMapOnSingleWrite)
{
    // The write to a sole clean copy: Censier & Feautrier pays one
    // directory check; Yen & Fu pays one notification. Equal bus
    // cycles, different latency.
    YenFu protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.ops().dirChecks + protocol.ops().writeUpdates,
              1u);
}

TEST(YenFuTest, DirtyMissFlushesLikeFullMap)
{
    YenFu protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.read(1, B, false);
    EXPECT_EQ(protocol.events().count(EventType::RmBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 1u);
    EXPECT_EQ(protocol.cacheState(0, B), YenFu::stClean);
    EXPECT_EQ(protocol.cacheState(1, B), YenFu::stClean);
    // Two copies, no single bits, no extra maintenance signal (the
    // flush transaction itself informed the owner).
    EXPECT_EQ(protocol.ops().writeUpdates, 0u);
}

TEST(YenFuTest, DirtyRewriteFree)
{
    YenFu protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WhBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().busTransactions, 0u);
}

TEST(YenFuTest, InvariantsAcrossScenario)
{
    YenFu protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.checkAllInvariants();
    protocol.read(1, B, false);
    protocol.checkAllInvariants();
    protocol.write(2, B, false);
    protocol.checkAllInvariants();
    protocol.read(3, B, false);
    protocol.checkAllInvariants();
    protocol.write(3, B, false);
    protocol.checkAllInvariants();
}

} // namespace
} // namespace dirsim
