/** @file Unit tests for common/logging.hh. */

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace dirsim
{
namespace
{

TEST(LoggingTest, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("boom"), LogicError);
}

TEST(LoggingTest, FatalThrowsUsageError)
{
    EXPECT_THROW(fatal("bad input"), UsageError);
}

TEST(LoggingTest, BothAreSimulationErrors)
{
    EXPECT_THROW(panic("boom"), SimulationError);
    EXPECT_THROW(fatal("bad"), SimulationError);
}

TEST(LoggingTest, MessagesAreFormatted)
{
    try {
        panic("value was ", 42, ", expected ", 7);
        FAIL() << "panic did not throw";
    } catch (const LogicError &e) {
        EXPECT_STREQ(e.what(), "value was 42, expected 7");
    }
}

TEST(LoggingTest, PanicIfNotPassesWhenTrue)
{
    EXPECT_NO_THROW(panicIfNot(true, "unused"));
}

TEST(LoggingTest, PanicIfNotThrowsWhenFalse)
{
    EXPECT_THROW(panicIfNot(false, "invariant broken"), LogicError);
}

TEST(LoggingTest, FatalIfThrowsWhenTrue)
{
    EXPECT_THROW(fatalIf(true, "rejected"), UsageError);
    EXPECT_NO_THROW(fatalIf(false, "unused"));
}

TEST(LoggingTest, UsageErrorDistinctFromLogicError)
{
    try {
        fatal("user problem");
        FAIL();
    } catch (const LogicError &) {
        FAIL() << "fatal must not throw LogicError";
    } catch (const UsageError &) {
        SUCCEED();
    }
}

} // namespace
} // namespace dirsim
