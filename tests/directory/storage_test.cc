/** @file Unit tests for directory/storage.hh. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "directory/storage.hh"

namespace dirsim
{
namespace
{

StorageParams
params(unsigned n, unsigned i = 1)
{
    StorageParams p;
    p.numCaches = n;
    p.numPointers = i;
    return p;
}

TEST(StorageTest, FullMapIsNPlusOne)
{
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::FullMap, params(4)), 5.0);
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::FullMap, params(64)), 65.0);
}

TEST(StorageTest, TwoBitIsConstant)
{
    for (unsigned n : {2u, 16u, 1024u})
        EXPECT_DOUBLE_EQ(
            directoryBitsPerBlock(DirectoryOrg::TwoBit, params(n)), 2.0);
}

TEST(StorageTest, LimitedPtrGrowsLogarithmically)
{
    // 1 pointer of log2(64)=6 bits + 1-bit count + dirty = 8.
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::LimitedPtr, params(64, 1)),
        8.0);
    // 2 pointers: 12 + ceil(log2 3)=2 + 1 = 15.
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::LimitedPtr, params(64, 2)),
        15.0);
}

TEST(StorageTest, BroadcastBitCostsOneBit)
{
    const double nb =
        directoryBitsPerBlock(DirectoryOrg::LimitedPtr, params(32, 2));
    const double b =
        directoryBitsPerBlock(DirectoryOrg::LimitedPtrB, params(32, 2));
    EXPECT_DOUBLE_EQ(b, nb + 1.0);
}

TEST(StorageTest, CoarseVectorIsTwoLogN)
{
    // 2*log2(64) + dirty = 13.
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::CoarseVector, params(64)),
        13.0);
}

TEST(StorageTest, LimitedBeatsFullMapAtScale)
{
    // The Section 6 motivation: for large n, a few pointers cost far
    // less than a full bit vector.
    const double full =
        directoryBitsPerBlock(DirectoryOrg::FullMap, params(1024));
    const double limited = directoryBitsPerBlock(
        DirectoryOrg::LimitedPtrB, params(1024, 2));
    EXPECT_LT(limited, full / 10.0);
}

TEST(StorageTest, HandComputedValuesAtScale)
{
    // S2 cross-check: every pointer-based formula against values
    // computed by hand at the scaling suite's machine sizes.
    // N=64: i pointers of 6 bits + ceil(log2(i+1)) count + dirty.
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::LimitedPtr, params(64, 4)),
        4 * 6 + 3 + 1.0); // 28
    // N=256: 8-bit pointers.
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::LimitedPtr,
                              params(256, 4)),
        4 * 8 + 3 + 1.0); // 36
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::LimitedPtrB,
                              params(256, 4)),
        37.0);
    // N=1024: 10-bit pointers.
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::LimitedPtr,
                              params(1024, 2)),
        2 * 10 + 2 + 1.0); // 23
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::LimitedPtr,
                              params(1024, 8)),
        8 * 10 + 4 + 1.0); // 85
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::FullMap, params(1024)),
        1025.0);
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::CoarseVector,
                              params(256)),
        17.0);
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::CoarseVector,
                              params(1024)),
        21.0);
}

TEST(StorageTest, RegionVectorIsCeilNOverK)
{
    const auto region = [](unsigned n, unsigned k) {
        StorageParams p;
        p.numCaches = n;
        p.regionSize = k;
        return directoryBitsPerBlock(DirectoryOrg::RegionVector, p);
    };
    // ceil(n/K) presence bits + dirty; the clipped last region still
    // needs its own bit.
    EXPECT_DOUBLE_EQ(region(6, 4), 3.0);
    EXPECT_DOUBLE_EQ(region(64, 12), 7.0);
    EXPECT_DOUBLE_EQ(region(256, 12), 23.0);
    EXPECT_DOUBLE_EQ(region(1024, 12), 87.0);
    EXPECT_DOUBLE_EQ(region(1024, 1024), 2.0);

    StorageParams bad;
    bad.regionSize = 0;
    EXPECT_THROW(
        directoryBitsPerBlock(DirectoryOrg::RegionVector, bad),
        UsageError);
}

TEST(StorageTest, TangAmortization)
{
    StorageParams p = params(4);
    p.blocksPerCache = 1024;
    p.tagBits = 15;
    p.memoryBlocks = 1 << 16;
    // 4 caches * 1024 blocks * 16 bits / 65536 blocks = 1 bit/block.
    EXPECT_DOUBLE_EQ(
        directoryBitsPerBlock(DirectoryOrg::TangDuplicate, p), 1.0);
}

TEST(StorageTest, RejectsDegenerateInputs)
{
    EXPECT_THROW(
        directoryBitsPerBlock(DirectoryOrg::FullMap, params(0)),
        UsageError);
    StorageParams p = params(4);
    p.memoryBlocks = 0;
    EXPECT_THROW(
        directoryBitsPerBlock(DirectoryOrg::TangDuplicate, p),
        UsageError);
}

TEST(StorageTest, OrgNames)
{
    EXPECT_STREQ(toString(DirectoryOrg::FullMap), "full-map");
    EXPECT_STREQ(toString(DirectoryOrg::TwoBit), "two-bit");
    EXPECT_STREQ(toString(DirectoryOrg::CoarseVector), "coarse-vector");
    EXPECT_STREQ(toString(DirectoryOrg::TangDuplicate),
                 "tang-duplicate");
    EXPECT_STREQ(toString(DirectoryOrg::LimitedPtr), "limited-ptr");
    EXPECT_STREQ(toString(DirectoryOrg::LimitedPtrB), "limited-ptr+b");
    EXPECT_STREQ(toString(DirectoryOrg::RegionVector),
                 "region-vector");
}

} // namespace
} // namespace dirsim
