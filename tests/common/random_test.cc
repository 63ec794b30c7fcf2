/** @file Unit tests for common/random.hh. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"

namespace dirsim
{
namespace
{

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(RngTest, ZeroSeedIsUsable)
{
    Rng rng(0);
    std::set<std::uint64_t> values;
    for (int i = 0; i < 50; ++i)
        values.insert(rng.next());
    EXPECT_GT(values.size(), 45u);
}

TEST(RngTest, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, BelowZeroPanics)
{
    Rng rng(7);
    EXPECT_THROW(rng.below(0), LogicError);
}

TEST(RngTest, BelowOneIsAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, BelowCoversRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, BetweenInclusiveBounds)
{
    Rng rng(11);
    bool hit_lo = false;
    bool hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.between(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        hit_lo |= v == 3;
        hit_hi |= v == 6;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(RngTest, BetweenRejectsInvertedBounds)
{
    Rng rng(1);
    EXPECT_THROW(rng.between(5, 4), LogicError);
}

TEST(RngTest, UniformInHalfOpenUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(RngTest, ChanceMatchesProbability)
{
    Rng rng(19);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, GeometricMeanMatches)
{
    Rng rng(23);
    const double p = 0.125;
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of failures-before-success is (1-p)/p = 7.
    EXPECT_NEAR(sum / trials, 7.0, 0.3);
}

TEST(RngTest, GeometricPOneIsZero)
{
    Rng rng(29);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(RngTest, GeometricRejectsBadP)
{
    Rng rng(29);
    EXPECT_THROW(rng.geometric(0.0), LogicError);
    EXPECT_THROW(rng.geometric(1.5), LogicError);
}

TEST(RngTest, SplitStreamsAreIndependent)
{
    Rng parent(41);
    Rng child1 = parent.split();
    Rng child2 = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += child1.next() == child2.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(ZipfSamplerTest, SkewPrefersLowRanks)
{
    Rng rng(43);
    ZipfSampler sampler(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[sampler(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[90]);
}

TEST(ZipfSamplerTest, ZeroSkewIsUniform)
{
    Rng rng(47);
    ZipfSampler sampler(10, 0.0);
    std::vector<int> counts(10, 0);
    const int trials = 50000;
    for (int i = 0; i < trials; ++i)
        ++counts[sampler(rng)];
    for (const int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / trials, 0.1, 0.02);
}

TEST(ZipfSamplerTest, SingleRank)
{
    Rng rng(53);
    ZipfSampler sampler(1, 2.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampler(rng), 0u);
}

TEST(ZipfSamplerTest, AlwaysInRange)
{
    Rng rng(59);
    ZipfSampler sampler(7, 1.5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(sampler(rng), 7u);
}

TEST(ZipfSamplerTest, EmptyRangePanics)
{
    EXPECT_THROW(ZipfSampler(0, 1.0), LogicError);
}

TEST(ZipfSamplerTest, GuideMatchesFullSearch)
{
    // The guide table must return exactly the rank a search of the
    // whole CDF returns: at every bucket boundary, just below each,
    // and on random draws. The shapes include the tracegen profiles'.
    const std::vector<std::pair<std::uint64_t, double>> shapes{
        {1, 2.0},     {10, 0.0},     {4096, 0.6},
        {5000, 1.0},  {12288, 0.85}, {32768, 0.70},
    };
    for (const auto &[n, s] : shapes) {
        SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
        const ZipfSampler sampler(n, s);
        // The reference: the sampler's CDF, built the same way, and a
        // search of all of it.
        std::vector<double> cdf(n);
        double running = 0.0;
        for (std::uint64_t r = 0; r < n; ++r) {
            running += 1.0 / std::pow(static_cast<double>(r + 1), s);
            cdf[r] = running;
        }
        for (double &c : cdf)
            c /= running;
        const auto full = [&](double u) {
            const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
            return std::min<std::uint64_t>(
                static_cast<std::uint64_t>(it - cdf.begin()), n - 1);
        };

        const std::uint64_t buckets = std::bit_ceil(n);
        for (std::uint64_t k = 0; k < buckets; ++k) {
            const double boundary = static_cast<double>(k)
                / static_cast<double>(buckets);
            ASSERT_EQ(sampler.rank(boundary), full(boundary)) << k;
            // The double just below each boundary, the last one (1.0)
            // included: the largest draw Rng::uniform() can make.
            const double below = std::nextafter(
                static_cast<double>(k + 1) / static_cast<double>(buckets),
                0.0);
            ASSERT_EQ(sampler.rank(below), full(below)) << k;
        }

        Rng rng(61 + n);
        for (int i = 0; i < 1000000; ++i) {
            const double u = rng.uniform();
            ASSERT_EQ(sampler.rank(u), full(u)) << u;
        }
    }
}

TEST(ZipfSamplerTest, RankRejectsDrawsOutsideTheUnitInterval)
{
    const ZipfSampler sampler(16, 1.0);
    EXPECT_THROW(sampler.rank(1.0), LogicError);
    EXPECT_THROW(sampler.rank(-0.25), LogicError);
}

} // namespace
} // namespace dirsim
