/**
 * @file
 * Tests for the strict decimal parser and the DIRSIM_* environment
 * parsing built on it (common/env.hh) — in particular that both
 * reject anything but pure digits instead of letting std::stoull wrap
 * negatives ("-1" -> 2^64-1), skip leading whitespace or stop at the
 * first non-digit.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"

namespace dirsim
{
namespace
{

constexpr const char *var = "DIRSIM_ENV_TEST_VALUE";

class EnvTest : public ::testing::Test
{
  protected:
    void TearDown() override { unsetenv(var); }

    void
    set(const char *value)
    {
        setenv(var, value, 1);
    }
};

TEST_F(EnvTest, UnsetAndEmptyFallBack)
{
    unsetenv(var);
    EXPECT_EQ(envU64(var, 42), 42u);
    EXPECT_FALSE(envString(var).has_value());
    set("");
    EXPECT_EQ(envU64(var, 42), 42u);
    EXPECT_FALSE(envString(var).has_value());
}

TEST_F(EnvTest, ParsesPlainDigits)
{
    set("0");
    EXPECT_EQ(envU64(var, 42), 0u);
    set("1500000");
    EXPECT_EQ(envU64(var, 42), 1'500'000u);
    set("18446744073709551615"); // 2^64 - 1
    EXPECT_EQ(envU64(var, 42), ~std::uint64_t{0});
}

TEST_F(EnvTest, RejectsNegativeValuesInsteadOfWrapping)
{
    // std::stoull("-1") silently yields 2^64-1; a warm-up of
    // "all references" is the opposite of what -1 asked for.
    set("-1");
    EXPECT_THROW(envU64(var, 42), UsageError);
}

TEST_F(EnvTest, RejectsNonNumericValues)
{
    for (const char *bad : {"banana", " 5", "5 ", "+5", "0x10",
                            "1e6", "3.5", "12abc"}) {
        set(bad);
        EXPECT_THROW(envU64(var, 42), UsageError) << "'" << bad << "'";
    }
}

TEST_F(EnvTest, RejectsOverflow)
{
    set("18446744073709551616"); // 2^64
    EXPECT_THROW(envU64(var, 42), UsageError);
}

TEST_F(EnvTest, ParseDecimalAcceptsDigitsUpToTheBound)
{
    EXPECT_EQ(parseDecimal("0", "n"), 0u);
    EXPECT_EQ(parseDecimal("65535", "--port", 65535), 65535u);
    EXPECT_EQ(parseDecimal("18446744073709551615", "n"),
              ~std::uint64_t{0});
}

TEST_F(EnvTest, ParseDecimalRejectsWhatStoullWouldWrapOrTruncate)
{
    for (const char *bad : {"-1", "4x", "+1", "", " 4", "0x10"}) {
        EXPECT_THROW(parseDecimal(bad, "--jobs"), UsageError)
            << "'" << bad << "'";
    }
    EXPECT_THROW(parseDecimal("18446744073709551616", "n"), // 2^64
                 UsageError);
    try {
        parseDecimal("70000", "--port", 65535);
        FAIL() << "accepted a value over the bound";
    } catch (const UsageError &error) {
        EXPECT_NE(std::string(error.what()).find("--port"),
                  std::string::npos)
            << error.what();
    }
}

TEST_F(EnvTest, EnvUnsignedRejectsValuesThatDoNotFit)
{
    set("4294967295");
    EXPECT_EQ(envUnsigned(var, 1), 4294967295u);
    set("4294967296");
    EXPECT_THROW(envUnsigned(var, 1), UsageError);
}

} // namespace
} // namespace dirsim
