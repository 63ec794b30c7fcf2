/** @file Unit tests for trace/filter.hh. */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "trace/filter.hh"

namespace dirsim
{
namespace
{

using test::instr;
using test::read;
using test::write;

Trace
mixedTrace()
{
    Trace trace("mixed", 4);
    trace.append(instr(100, 0x10));
    trace.append(read(100, 0x1000, flagLockSpin));
    trace.append(write(100, 0x1000, flagLockWrite));
    trace.append(read(101, 0x2000));
    trace.append(write(101, 0x2010, flagSystem));
    trace.append(read(102, 0x3000, flagSystem));
    return trace;
}

TEST(FilterTest, ExcludeLockRefsRemovesAllLockTraffic)
{
    const Trace filtered = excludeLockRefs(mixedTrace());
    EXPECT_EQ(filtered.size(), 4u);
    for (const auto &record : filtered)
        EXPECT_FALSE(record.isLockRef());
}

TEST(FilterTest, ExcludeSpinReadsKeepsLockWrites)
{
    const Trace filtered = excludeSpinReads(mixedTrace());
    EXPECT_EQ(filtered.size(), 5u);
    bool saw_lock_write = false;
    for (const auto &record : filtered) {
        EXPECT_FALSE(record.isLockSpin());
        saw_lock_write |= record.isLockWrite();
    }
    EXPECT_TRUE(saw_lock_write);
}

TEST(FilterTest, KeepUserOnlyDropsSystem)
{
    const Trace filtered = keepUserOnly(mixedTrace());
    EXPECT_EQ(filtered.size(), 4u);
    for (const auto &record : filtered)
        EXPECT_FALSE(record.isSystem());
}

TEST(FilterTest, FiltersPreserveMetadataAndOrder)
{
    const Trace filtered = excludeLockRefs(mixedTrace());
    EXPECT_EQ(filtered.name(), "mixed");
    EXPECT_EQ(filtered.numCpus(), 4u);
    // Order: instr, read(0x2000), write(0x2010), read(0x3000).
    EXPECT_TRUE(filtered[0].isInstr());
    EXPECT_EQ(filtered[1].addr, 0x2000u);
    EXPECT_EQ(filtered[2].addr, 0x2010u);
}

TEST(FilterTest, FilterOnEmptyTrace)
{
    Trace empty("e", 2);
    EXPECT_EQ(excludeLockRefs(empty).size(), 0u);
    EXPECT_EQ(keepUserOnly(empty).size(), 0u);
}

} // namespace
} // namespace dirsim
