/** @file Unit tests for tracegen/address_space.hh. */

#include <gtest/gtest.h>

#include <iterator>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "tracegen/address_space.hh"

namespace dirsim
{
namespace
{

TEST(AddressSpaceTest, SegmentsDoNotOverlap)
{
    AddressSpace space;
    // Representative extreme addresses from each segment.
    const Addr samples[] = {
        space.code(63, 1 << 20),
        space.privateData(63, 1 << 20),
        space.shared(1 << 20),
        space.lock(255),
        space.mailbox(255, 255),
        space.kernelCode(1 << 20),
        space.kernelData(1 << 16),
        space.kernelProcData(63, 1 << 16),
    };
    const Addr bases[] = {
        AddressSpace::codeBase,     AddressSpace::privateBase,
        AddressSpace::sharedBase,   AddressSpace::lockBase,
        AddressSpace::mailboxBase,  AddressSpace::kernelCodeBase,
        AddressSpace::kernelDataBase, AddressSpace::kernelProcBase,
    };
    // Each sampled address must stay within its own segment, i.e.
    // below the next segment's base.
    for (std::size_t i = 0; i < std::size(samples); ++i) {
        EXPECT_GE(samples[i], bases[i]) << "segment " << i;
        if (i + 1 < std::size(bases)) {
            EXPECT_LT(samples[i], bases[i + 1]) << "segment " << i;
        }
    }
}

TEST(AddressSpaceTest, PrivateDataDisjointAcrossProcesses)
{
    AddressSpace space;
    const Addr a = space.privateData(1, 0);
    const Addr b = space.privateData(2, 0);
    EXPECT_EQ(b - a, AddressSpace::privateStride);
    // Large index wraps within the process stride, never spilling
    // into the neighbour's region.
    const Addr wrapped = space.privateData(1, 1u << 28);
    EXPECT_GE(wrapped, space.privateData(1, 0));
    EXPECT_LT(wrapped, space.privateData(2, 0));
}

TEST(AddressSpaceTest, CodeDisjointAcrossProcesses)
{
    AddressSpace space;
    const Addr wrapped = space.code(3, 1u << 30);
    EXPECT_GE(wrapped, space.code(3, 0));
    EXPECT_LT(wrapped, space.code(4, 0));
}

TEST(AddressSpaceTest, LocksOnDistinctBlocks)
{
    AddressSpace space(16);
    for (unsigned i = 0; i + 1 < 32; ++i) {
        EXPECT_NE(blockNumber(space.lock(i), 16),
                  blockNumber(space.lock(i + 1), 16));
    }
}

TEST(AddressSpaceTest, LockSpacingFollowsBlockSize)
{
    AddressSpace coarse(64);
    EXPECT_EQ(coarse.lock(1) - coarse.lock(0), 64u);
    EXPECT_NE(blockNumber(coarse.lock(0), 64),
              blockNumber(coarse.lock(1), 64));
}

TEST(AddressSpaceTest, MailboxesPerLockAreDisjoint)
{
    AddressSpace space;
    const Addr last_of_first = space.mailbox(0, 255);
    const Addr first_of_second = space.mailbox(1, 0);
    EXPECT_LT(last_of_first, first_of_second);
}

TEST(AddressSpaceTest, MailboxSlotsOnDistinctBlocks)
{
    AddressSpace space(16);
    EXPECT_NE(blockNumber(space.mailbox(0, 0), 16),
              blockNumber(space.mailbox(0, 1), 16));
}

TEST(AddressSpaceTest, KernelProcDataDisjointAcrossProcesses)
{
    AddressSpace space;
    const Addr wrapped = space.kernelProcData(0, 1u << 24);
    EXPECT_LT(wrapped, space.kernelProcData(1, 0));
}

TEST(AddressSpaceTest, WordIndexingIsWordAligned)
{
    AddressSpace space;
    EXPECT_EQ(space.shared(1) - space.shared(0), busWordBytes);
    EXPECT_EQ(space.kernelData(1) - space.kernelData(0), busWordBytes);
}

TEST(AddressSpaceTest, RejectsBadBlockSize)
{
    EXPECT_THROW(AddressSpace(3), UsageError);
}

} // namespace
} // namespace dirsim
