/** @file Scenario tests for the Dir_i B and Dir_i NB families. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "protocols/dir_i_b.hh"
#include "protocols/dir_i_nb.hh"

namespace dirsim
{
namespace
{

constexpr BlockNum B = 700;

/** Block indices the scenarios touch (all below 1024). */
constexpr BlockSpace blocks{1024};

TEST(DirIBTest, Names)
{
    EXPECT_EQ(DirIB(4, blocks, 1).name(), "Dir1B");
    EXPECT_EQ(DirIB(8, blocks, 3).name(), "Dir3B");
    EXPECT_EQ(DirINB(8, blocks, 2).name(), "Dir2NB");
}

TEST(DirIBTest, ExactModeUsesDirectedInvalidates)
{
    DirIB protocol(4, blocks, 2);
    protocol.read(0, B, true);
    protocol.read(1, B, false); // 2 pointers: still exact
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 1u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 0u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
}

TEST(DirIBTest, OverflowSetsBroadcastMode)
{
    DirIB protocol(4, blocks, 1);
    protocol.read(0, B, true);
    protocol.read(1, B, false); // overflow: broadcast bit set
    EXPECT_TRUE(protocol.broadcastBit(B));
    // Both copies still exist (overflow costs nothing yet).
    EXPECT_EQ(protocol.holders(B).count(), 2u);
}

TEST(DirIBTest, BroadcastModeWriteBroadcasts)
{
    DirIB protocol(4, blocks, 1);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.ops().broadcastInvals, 1u);
    EXPECT_EQ(protocol.ops().invalMsgs, 0u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    // After the invalidation the entry is exact again.
    EXPECT_FALSE(protocol.broadcastBit(B));
    EXPECT_EQ(protocol.cacheState(0, B), DirIB::stDirty);
}

TEST(DirIBTest, DirtyMissUsesDirectedFlush)
{
    DirIB protocol(4, blocks, 1);
    protocol.write(0, B, true);
    protocol.read(1, B, false);
    // Dirty implies a known single pointer: directed request.
    EXPECT_EQ(protocol.ops().invalMsgs, 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 1u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 0u);
    EXPECT_EQ(protocol.holders(B).count(), 2u);
}

TEST(DirIBTest, InvariantsUnderMixedTraffic)
{
    DirIB protocol(4, blocks, 2);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false); // broadcast mode
    protocol.checkAllInvariants();
    protocol.write(3, B, false);
    protocol.checkAllInvariants();
    protocol.read(0, B, false);
    protocol.checkAllInvariants();
}

TEST(DirINBTest, CopyCountNeverExceedsBudget)
{
    DirINB protocol(4, blocks, 2);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false); // evicts the oldest copy (cache 0)
    EXPECT_EQ(protocol.holders(B).count(), 2u);
    EXPECT_FALSE(protocol.holders(B).contains(0));
    EXPECT_EQ(protocol.ops().overflowInvals, 1u);
}

TEST(DirINBTest, EvictedCopyRemisses)
{
    DirINB protocol(4, blocks, 2);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false); // cache 0 evicted
    protocol.read(0, B, false); // must miss again
    EXPECT_EQ(protocol.events().count(EventType::RdMiss), 3u);
    // ...and evicts cache 1 in turn (FIFO).
    EXPECT_FALSE(protocol.holders(B).contains(1));
}

TEST(DirINBTest, NeverBroadcasts)
{
    DirINB protocol(4, blocks, 2);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(2, B, false);
    protocol.read(3, B, false);
    EXPECT_EQ(protocol.ops().broadcastInvals, 0u);
}

TEST(DirINBTest, WriteHitInvalidatesPointedCopies)
{
    DirINB protocol(4, blocks, 3);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 2u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    EXPECT_EQ(protocol.cacheState(1, B), DirINB::stDirty);
}

TEST(DirINBTest, FirstRefOverflowImpossible)
{
    DirINB protocol(4, blocks, 1);
    protocol.read(0, B, true);
    EXPECT_EQ(protocol.ops().overflowInvals, 0u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
}

TEST(DirINBTest, InvariantsUnderChurn)
{
    DirINB protocol(4, blocks, 2);
    for (int round = 0; round < 8; ++round) {
        protocol.read(static_cast<CacheId>(round % 4), B, round == 0);
        protocol.checkAllInvariants();
    }
    protocol.write(1, B, false);
    protocol.checkAllInvariants();
    EXPECT_LE(protocol.holders(B).count(), 2u);
}

TEST(DirINBTest, BudgetValidation)
{
    EXPECT_THROW(DirINB(4, blocks, 0), UsageError);
    EXPECT_THROW(DirIB(4, blocks, 0), UsageError);
}

// ---- Large-N stress (S2): sharer count far above the pointer
// budget, with exact accounting checked by hand. ----

TEST(DirIBTest, ManySharersBroadcastAccountingAtLargeN)
{
    // 200 of 256 caches share a block on a 4-pointer directory: one
    // broadcast, zero directed messages, and the writer is the sole
    // holder afterwards with an exact entry again.
    DirIB protocol(256, blocks, 4);
    protocol.read(0, B, true);
    for (CacheId c = 1; c < 200; ++c)
        protocol.read(c, B, false);
    EXPECT_TRUE(protocol.broadcastBit(B));
    protocol.checkAllInvariants();

    protocol.write(0, B, false);
    EXPECT_EQ(protocol.ops().broadcastInvals, 1u);
    EXPECT_EQ(protocol.ops().invalMsgs, 0u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    EXPECT_FALSE(protocol.broadcastBit(B));
    protocol.checkAllInvariants();

    // Re-sharing after the reset is exact up to the budget again:
    // the read's dirty flush is one directed message, and the next
    // write invalidates the single other copy with one more — no
    // further broadcasts.
    protocol.read(17, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 1u);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 2u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 1u);
}

TEST(DirINBTest, EvictionChurnAccountingAtLargeN)
{
    // 200 sequential sharers through a 4-pointer FIFO: each reader
    // past the fourth evicts exactly one copy, so copies never exceed
    // the budget and overflowInvals counts the evictions exactly.
    DirINB protocol(256, blocks, 4);
    protocol.read(0, B, true);
    for (CacheId c = 1; c < 200; ++c) {
        protocol.read(c, B, false);
        ASSERT_LE(protocol.holders(B).count(), 4u);
    }
    EXPECT_EQ(protocol.ops().overflowInvals, 200u - 4u);
    EXPECT_EQ(protocol.ops().broadcastInvals, 0u);
    // FIFO: the survivors are the last four readers.
    for (CacheId c = 196; c < 200; ++c)
        EXPECT_TRUE(protocol.holders(B).contains(c)) << c;
    protocol.checkAllInvariants();

    // A write then invalidates exactly the other pointed copies.
    protocol.write(199, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 3u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    protocol.checkAllInvariants();
}

} // namespace
} // namespace dirsim
