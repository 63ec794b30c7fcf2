/** @file Unit tests for directory/two_bit.hh (Archibald & Baer). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "directory/two_bit.hh"

namespace dirsim
{
namespace
{

TEST(TwoBitTest, DefaultsToNotCached)
{
    TwoBitDirectory dir(8);
    EXPECT_EQ(dir.state(7), TwoBitState::NotCached);
    // Outside the arena every block reads as not cached.
    EXPECT_EQ(dir.state(1234), TwoBitState::NotCached);
}

TEST(TwoBitTest, CleanCopyProgression)
{
    TwoBitDirectory dir(8);
    dir.addCleanCopy(1);
    EXPECT_EQ(dir.state(1), TwoBitState::CleanOne);
    dir.addCleanCopy(1);
    EXPECT_EQ(dir.state(1), TwoBitState::CleanMany);
    dir.addCleanCopy(1);
    EXPECT_EQ(dir.state(1), TwoBitState::CleanMany);
}

TEST(TwoBitTest, AddCleanCopyOnDirtyPanics)
{
    TwoBitDirectory dir(8);
    dir.makeDirty(1);
    EXPECT_THROW(dir.addCleanCopy(1), LogicError);
}

TEST(TwoBitTest, MakeDirtyFromAnyCleanState)
{
    TwoBitDirectory dir(8);
    dir.makeDirty(1);
    EXPECT_EQ(dir.state(1), TwoBitState::DirtyOne);

    dir.addCleanCopy(2);
    dir.makeDirty(2);
    EXPECT_EQ(dir.state(2), TwoBitState::DirtyOne);

    dir.addCleanCopy(3);
    dir.addCleanCopy(3);
    dir.makeDirty(3);
    EXPECT_EQ(dir.state(3), TwoBitState::DirtyOne);
}

TEST(TwoBitTest, MakeUncachedResets)
{
    TwoBitDirectory dir(8);
    dir.makeDirty(1);
    dir.makeUncached(1);
    EXPECT_EQ(dir.state(1), TwoBitState::NotCached);
}

TEST(TwoBitTest, SetStateDirect)
{
    TwoBitDirectory dir(8);
    dir.setState(1, TwoBitState::CleanMany);
    EXPECT_EQ(dir.state(1), TwoBitState::CleanMany);
    dir.setState(1, TwoBitState::NotCached);
    EXPECT_EQ(dir.state(1), TwoBitState::NotCached);
    EXPECT_THROW(dir.setState(8, TwoBitState::CleanOne), LogicError);
}

TEST(TwoBitTest, BlocksIndependent)
{
    TwoBitDirectory dir(8);
    dir.makeDirty(1);
    dir.addCleanCopy(2);
    EXPECT_EQ(dir.state(1), TwoBitState::DirtyOne);
    EXPECT_EQ(dir.state(2), TwoBitState::CleanOne);
    EXPECT_EQ(dir.state(3), TwoBitState::NotCached);
}

TEST(TwoBitTest, StateNames)
{
    EXPECT_STREQ(toString(TwoBitState::NotCached), "not-cached");
    EXPECT_STREQ(toString(TwoBitState::CleanOne), "clean-one");
    EXPECT_STREQ(toString(TwoBitState::CleanMany), "clean-many");
    EXPECT_STREQ(toString(TwoBitState::DirtyOne), "dirty-one");
}

} // namespace
} // namespace dirsim
