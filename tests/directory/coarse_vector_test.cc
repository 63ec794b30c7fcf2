/** @file Unit, property and spec tests for the Section 6 coarse
 *  vector (directory/coarse_vector.hh). */

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "directory/coarse_vector.hh"

namespace dirsim
{
namespace
{

TEST(CoarseVectorTest, EmptyDecodesEmpty)
{
    CoarseVectorDirectory dir(8, 0, 1);
    auto code = dir.entry(0);
    EXPECT_TRUE(code.empty());
    EXPECT_EQ(code.decode().count(), 0u);
    EXPECT_EQ(code.toString(), "(empty)");
}

TEST(CoarseVectorTest, SingleCacheIsExact)
{
    for (unsigned n : {1u, 2u, 4u, 8u, 16u}) {
        for (CacheId cache = 0; cache < n; ++cache) {
            CoarseVectorDirectory dir(n, 0, 1);
            auto code = dir.entry(0);
            code.add(cache);
            const SharerSet decoded = code.decode();
            EXPECT_EQ(decoded.count(), 1u) << n << "/" << cache;
            EXPECT_TRUE(decoded.contains(cache));
            EXPECT_EQ(code.bothDigits(), 0u);
        }
    }
}

TEST(CoarseVectorTest, DigitCount)
{
    EXPECT_EQ(CoarseVectorDirectory(1, 0, 1).digits(), 1u);
    EXPECT_EQ(CoarseVectorDirectory(2, 0, 1).digits(), 1u);
    EXPECT_EQ(CoarseVectorDirectory(4, 0, 1).digits(), 2u);
    EXPECT_EQ(CoarseVectorDirectory(5, 0, 1).digits(), 3u);
    EXPECT_EQ(CoarseVectorDirectory(16, 0, 1).digits(), 4u);
}

TEST(CoarseVectorTest, StorageBitsMatchPaper)
{
    // "Each digit can be coded in 2 bits, thus requiring 2log(n)
    // bits in a system with n caches."
    EXPECT_EQ(CoarseVectorDirectory(16, 0, 1).storageBits(), 8u);
    EXPECT_EQ(CoarseVectorDirectory(64, 0, 1).storageBits(), 12u);
}

TEST(CoarseVectorTest, PaperExampleTwoCaches)
{
    // Caches 0b00 and 0b11 in a 4-cache system: both digits become
    // BOTH and all four caches are denoted.
    CoarseVectorDirectory dir(4, 0, 1);
    auto code = dir.entry(0);
    code.add(0);
    code.add(3);
    EXPECT_EQ(code.bothDigits(), 2u);
    EXPECT_EQ(code.supersetSize(), 4u);
}

TEST(CoarseVectorTest, AdjacentCachesShareDigits)
{
    // Caches 0b00 and 0b01 differ only in digit 0.
    CoarseVectorDirectory dir(4, 0, 1);
    auto code = dir.entry(0);
    code.add(0);
    code.add(1);
    EXPECT_EQ(code.bothDigits(), 1u);
    const SharerSet decoded = code.decode();
    EXPECT_EQ(decoded.count(), 2u);
    EXPECT_TRUE(decoded.contains(0));
    EXPECT_TRUE(decoded.contains(1));
    EXPECT_FALSE(decoded.contains(2));
}

TEST(CoarseVectorTest, ToStringShowsDigits)
{
    CoarseVectorDirectory dir(4, 0, 1);
    auto code = dir.entry(0);
    code.add(2); // binary 10
    EXPECT_EQ(code.toString(), "1 0");
    code.add(3); // binary 11 -> low digit becomes both
    EXPECT_EQ(code.toString(), "1 *");
}

TEST(CoarseVectorTest, ClearRestoresEmpty)
{
    CoarseVectorDirectory dir(8, 0, 1);
    auto code = dir.entry(0);
    code.add(5);
    code.clear();
    EXPECT_TRUE(code.empty());
    EXPECT_EQ(code.decode().count(), 0u);
}

TEST(CoarseVectorTest, OutOfDomainPanics)
{
    CoarseVectorDirectory dir(6, 0, 1);
    auto code = dir.entry(0);
    EXPECT_THROW(code.add(6), LogicError);
}

TEST(CoarseVectorTest, ZeroDomainRejected)
{
    EXPECT_THROW(CoarseVectorDirectory(0, 0, 1), UsageError);
}

/** Property sweep over domain sizes, including non-powers of two. */
class CoarseVectorProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoarseVectorProperty, AlwaysSupersetOfExactSet)
{
    const unsigned n = GetParam();
    Rng rng(1000 + n);
    for (int round = 0; round < 200; ++round) {
        CoarseVectorDirectory dir(n, 0, 1);
        auto code = dir.entry(0);
        SharerSet exact(n);
        const unsigned adds =
            1 + static_cast<unsigned>(rng.below(n));
        for (unsigned i = 0; i < adds; ++i) {
            const auto cache =
                static_cast<CacheId>(rng.below(n));
            code.add(cache);
            exact.add(cache);
            ASSERT_TRUE(code.decode().isSupersetOf(exact))
                << "n=" << n << " round=" << round;
        }
    }
}

TEST_P(CoarseVectorProperty, SupersetSizeMatchesBothDigits)
{
    const unsigned n = GetParam();
    Rng rng(2000 + n);
    for (int round = 0; round < 100; ++round) {
        CoarseVectorDirectory dir(n, 0, 1);
        auto code = dir.entry(0);
        const unsigned adds =
            1 + static_cast<unsigned>(rng.below(n));
        for (unsigned i = 0; i < adds; ++i)
            code.add(static_cast<CacheId>(rng.below(n)));
        // With k BOTH digits the code denotes 2^k indices, clipped to
        // the domain when n is not a power of two.
        const unsigned denoted = 1u << code.bothDigits();
        EXPECT_LE(code.supersetSize(), denoted);
        EXPECT_GE(code.supersetSize(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(Domains, CoarseVectorProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12,
                                           16, 31, 32, 64));

// ---- Region-vector mode (DirCVr<K>): one bit per K-cache region. ----

TEST(RegionVectorTest, ClippedLastRegionWidth)
{
    // N=6, K=4: two regions, the last covers only caches {4, 5}.
    CoarseVectorDirectory dir(6, 4, 1);
    auto code = dir.entry(0);
    EXPECT_EQ(dir.regionSize(), 4u);
    EXPECT_EQ(dir.regionCount(), 2u);
    EXPECT_EQ(dir.regionWidth(0), 4u);
    EXPECT_EQ(dir.regionWidth(1), 2u);
    EXPECT_EQ(dir.storageBits(), 2u);

    code.add(5);
    EXPECT_EQ(code.flaggedRegions(), 1u);
    // The fan-out is the clipped width, not a blanket K.
    EXPECT_EQ(code.supersetSize(), 2u);
    const SharerSet decoded = code.decode();
    EXPECT_EQ(decoded.count(), 2u);
    EXPECT_TRUE(decoded.contains(4));
    EXPECT_TRUE(decoded.contains(5));

    code.add(0);
    EXPECT_EQ(code.flaggedRegions(), 2u);
    EXPECT_EQ(code.supersetSize(), 6u);
}

TEST(RegionVectorTest, LargeNonDivisibleDomain)
{
    // N=1022, K=32: 32 regions, the last (region 31) spans caches
    // 992..1021 — 30 wide.
    CoarseVectorDirectory dir(1022, 32, 1);
    auto code = dir.entry(0);
    EXPECT_EQ(dir.regionCount(), 32u);
    EXPECT_EQ(dir.regionWidth(30), 32u);
    EXPECT_EQ(dir.regionWidth(31), 30u);

    code.add(1021);
    EXPECT_EQ(code.supersetSize(), 30u);
    // decode() must never denote a cache outside the domain —
    // SharerSet::add would panic on cache >= 1022.
    const SharerSet decoded = code.decode();
    EXPECT_EQ(decoded.count(), 30u);
    EXPECT_TRUE(decoded.contains(992));
    EXPECT_TRUE(decoded.contains(1021));
    EXPECT_FALSE(decoded.contains(991));
}

TEST(RegionVectorTest, ExactDivisionAndDegenerateGranularities)
{
    // K divides N: every region is full width.
    CoarseVectorDirectory even_dir(8, 4, 1);
    EXPECT_EQ(even_dir.regionCount(), 2u);
    EXPECT_EQ(even_dir.regionWidth(1), 4u);

    // K >= N: one region covering the whole domain.
    CoarseVectorDirectory whole_dir(6, 64, 1);
    auto whole = whole_dir.entry(0);
    EXPECT_EQ(whole_dir.regionCount(), 1u);
    EXPECT_EQ(whole_dir.regionWidth(0), 6u);
    whole.add(2);
    EXPECT_EQ(whole.supersetSize(), 6u);

    // K = 1: the code degenerates to an exact presence-bit vector.
    CoarseVectorDirectory exact_dir(6, 1, 1);
    auto exact = exact_dir.entry(0);
    EXPECT_EQ(exact_dir.regionCount(), 6u);
    exact.add(1);
    exact.add(4);
    EXPECT_EQ(exact.supersetSize(), 2u);
    EXPECT_EQ(exact.decode().toVector(),
              (std::vector<CacheId>{1, 4}));
}

TEST(RegionVectorTest, ClearAndToString)
{
    CoarseVectorDirectory dir(6, 4, 1);
    auto code = dir.entry(0);
    EXPECT_EQ(code.toString(), "(empty)");
    code.add(4);
    EXPECT_EQ(code.toString(), "0.1");
    code.clear();
    EXPECT_TRUE(code.empty());
    EXPECT_EQ(code.decode().count(), 0u);
    EXPECT_EQ(code.supersetSize(), 0u);
}

TEST(RegionVectorTest, TernaryAccessorsPanicOnRegionQueries)
{
    CoarseVectorDirectory ternary_dir(8, 0, 1);
    auto ternary = ternary_dir.entry(0);
    EXPECT_THROW(ternary_dir.regionCount(), LogicError);
    EXPECT_THROW(ternary_dir.regionWidth(0), LogicError);
    EXPECT_THROW(ternary.flaggedRegions(), LogicError);
    CoarseVectorDirectory region_dir(8, 4, 1);
    EXPECT_THROW(region_dir.regionWidth(2), LogicError);
}

/** Domain/granularity sweep, non-divisible pairs included. */
class RegionVectorProperty
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(RegionVectorProperty, SupersetIsUnionOfFlaggedRegions)
{
    const auto [n, k] = GetParam();
    Rng rng(3000 + n * 131 + k);
    for (int round = 0; round < 50; ++round) {
        CoarseVectorDirectory dir(n, k, 1);
        auto code = dir.entry(0);
        SharerSet exact(n);
        const unsigned adds =
            1 + static_cast<unsigned>(rng.below(std::min(n, 40u)));
        for (unsigned i = 0; i < adds; ++i) {
            const auto cache = static_cast<CacheId>(rng.below(n));
            code.add(cache);
            exact.add(cache);
        }
        const SharerSet decoded = code.decode();
        ASSERT_TRUE(decoded.isSupersetOf(exact))
            << "n=" << n << " k=" << k;
        // supersetSize() must agree with the decoded set exactly,
        // and with the sum of the flagged regions' clipped widths.
        ASSERT_EQ(code.supersetSize(), decoded.count());
        unsigned width_sum = 0;
        for (unsigned r = 0; r < dir.regionCount(); ++r)
            width_sum += dir.regionWidth(r);
        ASSERT_EQ(width_sum, n);
        // Every member's whole region is denoted.
        exact.forEach([&](CacheId cache) {
            const unsigned region = cache / k;
            const unsigned begin = region * k;
            const unsigned end = begin + dir.regionWidth(region);
            for (unsigned c = begin; c < end; ++c)
                ASSERT_TRUE(decoded.contains(c));
        });
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RegionVectorProperty,
    ::testing::Values(std::pair<unsigned, unsigned>{6, 4},
                      std::pair<unsigned, unsigned>{6, 1},
                      std::pair<unsigned, unsigned>{8, 4},
                      std::pair<unsigned, unsigned>{13, 5},
                      std::pair<unsigned, unsigned>{64, 12},
                      std::pair<unsigned, unsigned>{256, 12},
                      std::pair<unsigned, unsigned>{1022, 32},
                      std::pair<unsigned, unsigned>{1024, 12}));

/** The ternary code at the S1 regression sizes (6 and 1022): bounded
 *  rounds so the O(n) decode stays fast at N=1022. */
TEST(CoarseVectorTest, TernaryRegressionSizesStaySupersets)
{
    for (const unsigned n : {6u, 1022u}) {
        Rng rng(4000 + n);
        for (int round = 0; round < 20; ++round) {
            CoarseVectorDirectory dir(n, 0, 1);
            auto code = dir.entry(0);
            SharerSet exact(n);
            for (unsigned i = 0; i < 12; ++i) {
                const auto cache = static_cast<CacheId>(rng.below(n));
                code.add(cache);
                exact.add(cache);
            }
            const SharerSet decoded = code.decode();
            ASSERT_TRUE(decoded.isSupersetOf(exact)) << "n=" << n;
            ASSERT_EQ(code.supersetSize(), decoded.count());
            ASSERT_LE(decoded.count(), n);
        }
    }
}

// ---- Spec: every code's queries against brute-force enumeration. ----

/**
 * Every query of @p code against @p expected, the denoted flag of
 * each cache of the domain: decode(), denotes() and supersetSize()
 * agree with it.
 */
::testing::AssertionResult
matchesEnumeration(const CoarseVectorDirectory::Entry &code,
                   const std::vector<bool> &expected)
{
    std::vector<CacheId> want;
    for (CacheId cache = 0; cache < expected.size(); ++cache) {
        if (expected[cache])
            want.push_back(cache);
    }
    if (code.decode().toVector() != want)
        return ::testing::AssertionFailure() << "decode() disagrees";
    if (code.supersetSize() != want.size()) {
        return ::testing::AssertionFailure()
               << "supersetSize() " << code.supersetSize()
               << ", the enumeration " << want.size();
    }
    for (CacheId cache = 0; cache < expected.size(); ++cache) {
        if (code.denotes(cache) != expected[cache])
            return ::testing::AssertionFailure()
                   << "denotes(" << cache << ") disagrees";
    }
    if (code.denotes(static_cast<CacheId>(expected.size()))
        || code.denotes(invalidCacheId))
        return ::testing::AssertionFailure() << "denotes a non-cache";
    return ::testing::AssertionSuccess();
}

/** The rendering of the ternary code fixing @p mask to @p value. */
std::string
ternaryText(unsigned digits, unsigned mask, unsigned value)
{
    std::string out;
    for (unsigned d = digits; d-- > 0;) {
        out += !((mask >> d) & 1) ? '*' : (value >> d) & 1 ? '1' : '0';
        if (d != 0)
            out += ' ';
    }
    return out;
}

TEST(CoarseVectorSpec, EveryTernaryCodeMatchesEnumeration)
{
    for (unsigned n = 1; n <= 64; ++n) {
        CoarseVectorDirectory dir(n, 0, 1);
        auto code = dir.entry(0);
        const unsigned digits = dir.digits();
        unsigned codes = 1;
        for (unsigned d = 0; d < digits; ++d)
            codes *= 3;
        for (unsigned c = 0; c < codes; ++c) {
            // Digit d of the code is base-3 digit d of c: 0, 1, or 2
            // for BOTH.
            unsigned mask = 0;
            unsigned value = 0;
            for (unsigned d = 0, rest = c; d < digits; ++d, rest /= 3) {
                if (rest % 3 == 2)
                    continue;
                mask |= 1u << d;
                value |= (rest % 3) << d;
            }
            std::vector<bool> expected(n);
            std::vector<CacheId> members;
            for (CacheId cache = 0; cache < n; ++cache) {
                expected[cache] = (cache & mask) == value;
                if (expected[cache])
                    members.push_back(cache);
            }
            // add() only ever folds in caches of the domain, so a
            // code denoting none of them is unreachable.
            if (members.empty())
                continue;
            code.clear();
            for (const CacheId cache : members)
                code.add(cache);
            // Adding every member yields the tightest code over them:
            // it fixes each digit they agree on and denotes them all.
            unsigned agree = (1u << digits) - 1;
            for (const CacheId cache : members)
                agree &= ~(cache ^ members.front());
            ASSERT_TRUE(matchesEnumeration(code, expected))
                << "n=" << n << " code=" << code.toString();
            ASSERT_EQ(code.bothDigits(),
                      digits - static_cast<unsigned>(
                                   std::popcount(agree)));
            ASSERT_EQ(code.toString(),
                      ternaryText(digits, agree, members.front() & agree));
        }
    }
}

TEST(CoarseVectorSpec, EveryRegionMaskMatchesEnumeration)
{
    for (unsigned n = 1; n <= 16; ++n) {
        for (unsigned k = 1; k <= n; ++k) {
            CoarseVectorDirectory dir(n, k, 1);
            auto code = dir.entry(0);
            const unsigned regions = dir.regionCount();
            for (std::uint32_t mask = 0; mask < (1u << regions); ++mask) {
                code.clear();
                std::vector<bool> expected(n);
                for (CacheId cache = 0; cache < n; ++cache)
                    expected[cache] = (mask >> (cache / k)) & 1;
                for (unsigned r = 0; r < regions; ++r) {
                    // Any member flags the region; vary which.
                    if ((mask >> r) & 1)
                        code.add(r * k + mask % dir.regionWidth(r));
                }
                ASSERT_EQ(code.empty(), mask == 0);
                ASSERT_EQ(code.flaggedRegions(),
                          static_cast<unsigned>(std::popcount(mask)));
                ASSERT_TRUE(matchesEnumeration(code, expected))
                    << "n=" << n << " k=" << k << " mask=" << mask;
            }
        }
    }
}

TEST(CoarseVectorSpec, RandomCodesMatchEnumerationAtLargeN)
{
    Rng rng(5150);
    for (const unsigned n : {17u, 100u, 1000u, 1022u, 1024u}) {
        // Region masks of every density, one- and multi-word codes.
        for (const unsigned k : {1u, 3u, 12u, 32u, 64u, 65u, n}) {
            CoarseVectorDirectory dir(n, k, 1);
            auto code = dir.entry(0);
            for (int round = 0; round < 20; ++round) {
                code.clear();
                std::vector<bool> flagged(dir.regionCount());
                for (unsigned r = 0; r < flagged.size(); ++r) {
                    flagged[r] = rng.chance(round / 19.0);
                    if (flagged[r])
                        code.add(r * k);
                }
                std::vector<bool> expected(n);
                for (CacheId cache = 0; cache < n; ++cache)
                    expected[cache] = flagged[cache / k];
                ASSERT_TRUE(matchesEnumeration(code, expected))
                    << "n=" << n << " k=" << k << " round=" << round;
            }
        }
        // Ternary codes from random member sets: the code fixes the
        // digits every added cache agrees on.
        CoarseVectorDirectory dir(n, 0, 1);
        auto code = dir.entry(0);
        for (int round = 0; round < 200; ++round) {
            code.clear();
            const auto first = static_cast<CacheId>(rng.below(n));
            unsigned agree = (1u << dir.digits()) - 1;
            code.add(first);
            for (int i = round % 6; i > 0; --i) {
                const auto cache = static_cast<CacheId>(rng.below(n));
                code.add(cache);
                agree &= ~(cache ^ first);
            }
            std::vector<bool> expected(n);
            for (CacheId cache = 0; cache < n; ++cache)
                expected[cache] = (cache & agree) == (first & agree);
            ASSERT_TRUE(matchesEnumeration(code, expected))
                << "n=" << n << " code=" << code.toString();
        }
    }
}

TEST(CoarseVectorDirectoryTest, EntriesAreIndependentAtTheArenaEdges)
{
    for (const unsigned k : {0u, 1u, 12u}) {
        CoarseVectorDirectory dir(1024, k, 1000);
        const CoarseVectorDirectory &view = dir;
        for (const BlockNum block : {BlockNum{0}, BlockNum{999}}) {
            const BlockNum neighbour = block == 0 ? 1 : 998;
            auto entry = dir.entry(block);
            entry.add(1023);
            entry.add(0);
            EXPECT_TRUE(view.entry(block).denotes(1023));
            EXPECT_TRUE(view.entry(neighbour).empty());
            EXPECT_FALSE(view.entry(neighbour).denotes(1023));
            entry.clear();
            EXPECT_TRUE(entry.empty());
            EXPECT_FALSE(view.entry(block).denotes(0));
        }
        EXPECT_THROW(dir.entry(1000), LogicError);
        EXPECT_THROW(view.entry(1000), LogicError);
    }
    EXPECT_THROW(CoarseVectorDirectory(maxCacheDomain + 1, 0, 1),
                 UsageError);
}

} // namespace
} // namespace dirsim
