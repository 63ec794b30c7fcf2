/** @file Scenario tests for the coarse-vector limited-broadcast
 *  directory (DirCV). */

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/infinite_cache.hh"
#include "protocols/dir_cv.hh"

namespace dirsim
{
namespace
{

constexpr BlockNum B = 900;

/** Block indices the scenarios touch (all below 1024). */
constexpr BlockSpace blocks{1024};

TEST(DirCVTest, SingleSharerIsExact)
{
    DirCV protocol(4, blocks);
    protocol.read(2, B, true);
    const auto entry = protocol.directory().entry(B);
    EXPECT_EQ(entry.supersetSize(), 1u);
    EXPECT_TRUE(entry.decode().contains(2));
}

TEST(DirCVTest, CodeIsAlwaysASuperset)
{
    DirCV protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(3, B, false);
    const auto entry = protocol.directory().entry(B);
    EXPECT_TRUE(
        entry.decode().isSupersetOf(protocol.holders(B)));
    protocol.checkAllInvariants();
}

TEST(DirCVTest, SupersetInvalidationWastesMessages)
{
    // Caches 0 (00) and 3 (11) share: the code degenerates to all
    // four caches, so a write by 0 sends 3 messages though only one
    // other copy exists.
    DirCV protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(3, B, false);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 3u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
}

TEST(DirCVTest, AdjacentSharersStayTight)
{
    // Caches 0 (00) and 1 (01) differ in one digit: the superset has
    // two members, so the invalidation costs exactly one message.
    DirCV protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 1u);
}

TEST(DirCVTest, WriteResetsCodeToWriter)
{
    DirCV protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(3, B, false);
    protocol.write(1, B, false); // write miss
    const auto entry = protocol.directory().entry(B);
    EXPECT_EQ(entry.supersetSize(), 1u);
    EXPECT_TRUE(entry.decode().contains(1));
    EXPECT_TRUE(entry.dirty());
}

TEST(DirCVTest, DirtyFlushIsOneMessage)
{
    DirCV protocol(4, blocks);
    protocol.write(0, B, true);
    protocol.read(2, B, false);
    EXPECT_EQ(protocol.events().count(EventType::RmBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().invalMsgs, 1u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 1u);
    protocol.checkAllInvariants();
}

TEST(DirCVTest, NeverFullBroadcastOps)
{
    DirCV protocol(8, blocks);
    protocol.read(0, B, true);
    for (CacheId c = 1; c < 8; ++c)
        protocol.read(c, B, false);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.ops().broadcastInvals, 0u);
    // With all 8 caches sharing, the superset is everyone: 7 directed
    // messages.
    EXPECT_EQ(protocol.ops().invalMsgs, 7u);
}

TEST(DirCVTest, ReadSharingCostsNoInvalidations)
{
    DirCV protocol(4, blocks);
    protocol.read(0, B, true);
    protocol.read(1, B, false);
    protocol.read(2, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 0u);
}

TEST(DirCVTest, InvariantsUnderChurn)
{
    DirCV protocol(8, blocks);
    for (int round = 0; round < 30; ++round) {
        const auto cache = static_cast<CacheId>((round * 5) % 8);
        if (round % 7 == 3)
            protocol.write(cache, B, round == 0);
        else
            protocol.read(cache, B, round == 0);
        protocol.checkAllInvariants();
    }
}

/** An infinite cache that counts the invalidations it receives. */
class CountingCache final : public CacheModel
{
  public:
    CountingCache(std::uint64_t block_count, unsigned &count)
        : cache(block_count), invalidations(count)
    {}

    CacheBlockState lookup(BlockNum block) const override
    {
        return cache.lookup(block);
    }
    CacheBlockState access(BlockNum block) override
    {
        return cache.access(block);
    }
    CacheLine set(BlockNum block, CacheBlockState state) override
    {
        return cache.set(block, state);
    }
    CacheBlockState invalidate(BlockNum block) override
    {
        ++invalidations;
        return cache.invalidate(block);
    }
    std::size_t residentBlocks() const override
    {
        return cache.residentBlocks();
    }
    void clear() override { cache.clear(); }
    void forEach(const std::function<void(BlockNum, CacheBlockState)> &fn)
        const override
    {
        cache.forEach(fn);
    }

  private:
    InfiniteCache cache;
    unsigned &invalidations;
};

/** Caches whose invalidation counts land in @p counts, by cache id. */
CacheFactory
countingCaches(std::vector<unsigned> &counts)
{
    return [&counts, next = std::size_t{0}](
               const BlockSpace &space) mutable {
        return std::make_unique<CountingCache>(space.count,
                                               counts.at(next++));
    };
}

TEST(DirCVTest, SupersetMessagesInvalidateOnlyHolders)
{
    // Ternary: caches 1 (001) and 2 (010) of 8 share, so the code
    // "0 * *" denotes {0, 1, 2, 3}. A write by 1 charges a message to
    // each of 0, 2 and 3, but only 2 holds a copy to lose.
    std::vector<unsigned> ternary(8, 0);
    DirCV protocol(8, blocks, 0, countingCaches(ternary));
    protocol.read(1, B, true);
    protocol.read(2, B, false);
    EXPECT_EQ(protocol.directory().entry(B).supersetSize(), 4u);
    protocol.write(1, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 3u);
    EXPECT_EQ(protocol.holders(B).toVector(), (std::vector<CacheId>{1}));
    EXPECT_EQ(ternary, (std::vector<unsigned>{0, 0, 1, 0, 0, 0, 0, 0}));
    protocol.checkAllInvariants();

    // Region (N=6, K=4): holders 0 and 5 flag both regions, so a write
    // miss by 3 charges all 6 caches but reaches only 0 and 5.
    std::vector<unsigned> region(6, 0);
    DirCV regions(6, blocks, 4, countingCaches(region));
    regions.read(0, B, true);
    regions.read(5, B, false);
    regions.write(3, B, false);
    EXPECT_EQ(regions.ops().invalMsgs, 6u);
    EXPECT_EQ(regions.holders(B).toVector(), (std::vector<CacheId>{3}));
    EXPECT_EQ(region, (std::vector<unsigned>{1, 0, 0, 0, 0, 1}));
    regions.checkAllInvariants();
}

// ---- Region-vector mode: DirCVr<K> over a clipped last region. ----

TEST(DirCVrTest, NameCarriesGranularity)
{
    EXPECT_EQ(DirCV(4, blocks).name(), "DirCV");
    EXPECT_EQ(DirCV(6, blocks, 4).name(), "DirCVr4");
    EXPECT_EQ(DirCV(6, blocks, 4).directory().regionSize(), 4u);
}

TEST(DirCVrTest, SameRegionSharersCostClippedFanOut)
{
    // N=6, K=4: caches 4 and 5 live in the clipped last region
    // (width 2). A write by 4 invalidates the region minus the
    // writer: exactly 1 message, not K-1.
    DirCV protocol(6, blocks, 4);
    protocol.read(5, B, true);
    protocol.read(4, B, false);
    protocol.write(4, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 1u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
    protocol.checkAllInvariants();
}

TEST(DirCVrTest, CrossRegionSharersCostBothRegions)
{
    // Caches 0 (region 0, width 4) and 5 (region 1, width 2) share:
    // the superset is all 6 caches, so a write by 0 sends 5 messages
    // though only one other copy exists.
    DirCV protocol(6, blocks, 4);
    protocol.read(0, B, true);
    protocol.read(5, B, false);
    protocol.write(0, B, false);
    EXPECT_EQ(protocol.ops().invalMsgs, 5u);
    EXPECT_EQ(protocol.holders(B).count(), 1u);
}

TEST(DirCVrTest, DirtyProbeCostsRegionWidthNotGranularity)
{
    // A dirty block's code denotes the owner's whole region, so the
    // write-back request fans out to every region member. Owner 5
    // sits in the clipped last region: 2 messages, not K=4.
    DirCV protocol(6, blocks, 4);
    protocol.write(5, B, true);
    protocol.read(3, B, false);
    EXPECT_EQ(protocol.events().count(EventType::RmBlkDrty), 1u);
    EXPECT_EQ(protocol.ops().invalMsgs, 2u);
    EXPECT_EQ(protocol.ops().dirtySupplies, 1u);
    protocol.checkAllInvariants();

    // Same via the write-miss path: 3's copy is clean, 5's write
    // must probe 3's region (full width 4... owner region of 3 is
    // region 0) — re-derive: after the read, block is clean with
    // holders {3, 5}; a write miss by 1 invalidates the superset.
    DirCV wm(6, blocks, 4);
    wm.write(4, B, true);
    wm.write(1, B, false); // dirty branch: owner region {4,5} probed
    EXPECT_EQ(wm.ops().invalMsgs, 2u);
    EXPECT_EQ(wm.ops().dirtySupplies, 1u);
    wm.checkAllInvariants();
}

TEST(DirCVrTest, InvariantsUnderChurnAtOddGeometries)
{
    for (const auto &[n, k] :
         {std::pair<unsigned, unsigned>{6, 4},
          std::pair<unsigned, unsigned>{13, 5}}) {
        DirCV protocol(n, blocks, k);
        for (int round = 0; round < 60; ++round) {
            const auto cache =
                static_cast<CacheId>((round * 7) % n);
            if (round % 5 == 2)
                protocol.write(cache, B, round == 0);
            else
                protocol.read(cache, B, round == 0);
            protocol.checkAllInvariants();
        }
    }
}

} // namespace
} // namespace dirsim
