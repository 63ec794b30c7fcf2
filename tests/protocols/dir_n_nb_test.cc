/** @file Scenario tests for the DirNNB (full map) protocol. */

#include <gtest/gtest.h>

#include "protocols/dir_n_nb.hh"

namespace dirsim
{
namespace
{

constexpr BlockNum B = 200;

/** Block indices the scenarios touch (all below 1024). */
constexpr BlockSpace blocks{1024};

TEST(DirNNBTest, MultipleCleanCopiesCoexist)
{
    DirNNB protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);

    EXPECT_EQ(protocol.holders(B).count(), 3u);
    EXPECT_EQ(protocol.events().count(EventType::RmBlkCln), 2u);
    // Read sharing costs no invalidations in a full-map directory.
    EXPECT_EQ(protocol.ops().invalMsgs, 0u);
    EXPECT_EQ(protocol.ops().memSupplies, 2u);
}

TEST(DirNNBTest, DirectoryBitsMatchHolders)
{
    DirNNB protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(3, B, false);
    EXPECT_EQ(protocol.directory().sharerSnapshot(B),
              protocol.holders(B));
}

TEST(DirNNBTest, WriteHitSendsOneInvalidatePerCopy)
{
    DirNNB protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    protocol.write(0, B, false);

    EXPECT_EQ(protocol.events().count(EventType::WhBlkCln), 1u);
    // Sequential invalidations: one directed message per other copy.
    EXPECT_EQ(protocol.ops().invalMsgs, 2u);
    EXPECT_EQ(protocol.ops().dirChecks, 1u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    EXPECT_EQ(protocol.cacheState(0, B), DirNNB::stDirty);
    EXPECT_TRUE(protocol.directory().dirty(B));
}

TEST(DirNNBTest, Figure1HistogramSamplesOtherHolders)
{
    DirNNB protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    protocol.write(0, B, false); // 2 other holders

    protocol.read(1, B + 1, true);
    protocol.write(1, B + 1, false); // 0 other holders

    const Histogram &hist = protocol.cleanWriteHolders();
    EXPECT_EQ(hist.samples(), 2u);
    EXPECT_EQ(hist.count(2), 1u);
    EXPECT_EQ(hist.count(0), 1u);
}

TEST(DirNNBTest, ReadMissOnDirtyWritesBack)
{
    DirNNB protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.read(1, B, false);

    EXPECT_EQ(protocol.events().count(EventType::RmBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 1u);
    EXPECT_EQ(protocol.ops().invalMsgs, 1u); // write-back request
    // Owner keeps a now-clean copy; both caches share.
    EXPECT_EQ(protocol.cacheState(0, B), DirNNB::stClean);
    EXPECT_EQ(protocol.cacheState(1, B), DirNNB::stClean);
    EXPECT_FALSE(protocol.directory().dirty(B));
}

TEST(DirNNBTest, WriteMissOnDirtyFlushesAndInvalidates)
{
    DirNNB protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.write(1, B, false);

    EXPECT_EQ(protocol.events().count(EventType::WmBlkDrty), 1u);
    EXPECT_EQ(protocol.cacheState(0, B), stateNotPresent);
    EXPECT_EQ(protocol.cacheState(1, B), DirNNB::stDirty);
    EXPECT_EQ(protocol.ops().dirtySupplies, 1u);
    EXPECT_EQ(protocol.ops().invalMsgs, 1u);
}

TEST(DirNNBTest, WriteMissOnCleanCopiesInvalidatesEach)
{
    DirNNB protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    protocol.write(3, B, false);

    EXPECT_EQ(protocol.events().count(EventType::WmBlkCln), 1u);
    EXPECT_EQ(protocol.ops().invalMsgs, 3u);
    EXPECT_EQ(protocol.ops().memSupplies, 3u); // 2 fills + 1 wm fill
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    EXPECT_EQ(protocol.cleanWriteHolders().count(3), 1u);
}

TEST(DirNNBTest, WriteHitOnDirtyIsFree)
{
    DirNNB protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.events().count(EventType::WhBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().busTransactions, 0u);
}

TEST(DirNNBTest, NoBroadcastsEver)
{
    DirNNB protocol(4, blocks);
    protocol.read(0, B, true);
    for (CacheId c = 1; c < 4; ++c)
        protocol.read(c, B, false);
    protocol.write(0, B, false);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.ops().broadcastInvals, 0u);
}

TEST(DirNNBTest, InvariantsAcrossScenario)
{
    DirNNB protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.checkAllInvariants();
    protocol.write(1, B, false);
    protocol.checkAllInvariants();
    protocol.read(2, B, false);
    protocol.checkAllInvariants();
    protocol.write(3, B, false);
    protocol.checkAllInvariants();
}

} // namespace
} // namespace dirsim
