/** @file Unit tests for directory/sharer_set.hh. */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "directory/sharer_set.hh"

namespace dirsim
{
namespace
{

TEST(SharerSetTest, StartsEmpty)
{
    SharerSet set(4);
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.count(), 0u);
    EXPECT_FALSE(set.contains(0));
}

TEST(SharerSetTest, AddRemoveContains)
{
    SharerSet set(4);
    set.add(2);
    EXPECT_TRUE(set.contains(2));
    EXPECT_EQ(set.count(), 1u);
    set.remove(2);
    EXPECT_FALSE(set.contains(2));
    EXPECT_TRUE(set.empty());
}

TEST(SharerSetTest, AddIsIdempotent)
{
    SharerSet set(4);
    set.add(1);
    set.add(1);
    EXPECT_EQ(set.count(), 1u);
}

TEST(SharerSetTest, RemoveMissingMemberIsNoop)
{
    SharerSet set(4);
    set.add(1);
    set.remove(3); // in-domain non-member: a no-op
    EXPECT_EQ(set.count(), 1u);
}

TEST(SharerSetTest, OutOfDomainPanics)
{
    // add/remove/contains all reject ids outside the domain: a silent
    // no-op would mask an id-mapping bug in the caller.
    SharerSet set(4);
    set.add(1);
    EXPECT_THROW(set.add(4), LogicError);
    EXPECT_THROW(set.remove(4), LogicError);
    EXPECT_THROW(set.contains(4), LogicError);
    EXPECT_THROW(set.remove(100), LogicError);
    EXPECT_THROW(set.contains(invalidCacheId), LogicError);
    EXPECT_EQ(set.count(), 1u);
}

TEST(SharerSetTest, CountExcludingToleratesOutOfDomainId)
{
    // Protocols pass invalidCacheId as the "keeper" when nobody is
    // spared; the exclusion id is the one id allowed out of domain.
    SharerSet set(4);
    set.add(0);
    set.add(2);
    EXPECT_EQ(set.countExcluding(invalidCacheId), 2u);
    EXPECT_EQ(set.lastExcluding(invalidCacheId), 2u);
}

TEST(SharerSetTest, IsOnly)
{
    SharerSet set(4);
    set.add(3);
    EXPECT_TRUE(set.isOnly(3));
    EXPECT_FALSE(set.isOnly(2));
    set.add(1);
    EXPECT_FALSE(set.isOnly(3));
}

TEST(SharerSetTest, CountExcluding)
{
    SharerSet set(4);
    set.add(0);
    set.add(2);
    EXPECT_EQ(set.countExcluding(0), 1u);
    EXPECT_EQ(set.countExcluding(1), 2u);
}

TEST(SharerSetTest, FirstReturnsLowest)
{
    SharerSet set(70);
    set.add(65);
    set.add(3);
    EXPECT_EQ(set.first(), 3u);
    set.remove(3);
    EXPECT_EQ(set.first(), 65u);
}

TEST(SharerSetTest, FirstOnEmptyPanics)
{
    SharerSet set(4);
    EXPECT_THROW(set.first(), LogicError);
}

TEST(SharerSetTest, LargeDomainAcrossWords)
{
    SharerSet set(200);
    set.add(0);
    set.add(63);
    set.add(64);
    set.add(199);
    EXPECT_EQ(set.count(), 4u);
    EXPECT_EQ(set.toVector(),
              (std::vector<CacheId>{0, 63, 64, 199}));
}

TEST(SharerSetTest, ForEachAscending)
{
    SharerSet set(100);
    set.add(70);
    set.add(5);
    set.add(33);
    std::vector<CacheId> order;
    set.forEach([&](CacheId cache) { order.push_back(cache); });
    EXPECT_EQ(order, (std::vector<CacheId>{5, 33, 70}));
}

TEST(SharerSetTest, LastExcludingReturnsHighestOther)
{
    SharerSet set(200);
    set.add(3);
    set.add(64);
    set.add(150);
    // The excluded cache need not be a member.
    EXPECT_EQ(set.lastExcluding(2), 150u);
    // When it is, the next-highest member wins — across words.
    EXPECT_EQ(set.lastExcluding(150), 64u);
    set.remove(64);
    EXPECT_EQ(set.lastExcluding(150), 3u);
}

TEST(SharerSetTest, LastExcludingWithNoOtherMemberIsInvalid)
{
    SharerSet set(8);
    set.add(5);
    EXPECT_EQ(set.lastExcluding(5), invalidCacheId);
    const SharerSet empty(8);
    EXPECT_EQ(empty.lastExcluding(0), invalidCacheId);
}

TEST(SharerSetTest, ClearEmpties)
{
    SharerSet set(10);
    set.add(1);
    set.add(9);
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.numCaches(), 10u);
}

TEST(SharerSetTest, SupersetRelation)
{
    SharerSet big(8);
    big.add(1);
    big.add(2);
    big.add(5);
    SharerSet small(8);
    small.add(2);
    small.add(5);
    EXPECT_TRUE(big.isSupersetOf(small));
    EXPECT_FALSE(small.isSupersetOf(big));
    EXPECT_TRUE(big.isSupersetOf(big));
    SharerSet empty(8);
    EXPECT_TRUE(small.isSupersetOf(empty));
}

TEST(SharerSetTest, SupersetAcrossDomainsPanics)
{
    SharerSet a(8);
    SharerSet b(16);
    EXPECT_THROW(a.isSupersetOf(b), LogicError);
}

TEST(SharerSetTest, Equality)
{
    SharerSet a(8);
    SharerSet b(8);
    a.add(3);
    EXPECT_NE(a, b);
    b.add(3);
    EXPECT_EQ(a, b);
}

/**
 * Word-boundary audit (S3): every multi-word path at domain sizes
 * that sit just below, exactly at, and just above the 64-bit word
 * edge, plus a large multi-word domain.
 */
class SharerSetBoundary : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SharerSetBoundary, EdgeMembersRoundTrip)
{
    const unsigned n = GetParam();
    SharerSet set(n);
    // Members at every word edge the domain has.
    std::vector<CacheId> edges{0, static_cast<CacheId>(n - 1)};
    for (unsigned word_edge = 63; word_edge < n; word_edge += 64) {
        edges.push_back(static_cast<CacheId>(word_edge));
        if (word_edge + 1 < n)
            edges.push_back(static_cast<CacheId>(word_edge + 1));
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    for (const CacheId cache : edges)
        set.add(cache);
    EXPECT_EQ(set.count(), edges.size());
    EXPECT_EQ(set.toVector(), edges);
    for (const CacheId cache : edges)
        EXPECT_TRUE(set.contains(cache)) << "n=" << n << " " << cache;
    EXPECT_THROW(set.add(static_cast<CacheId>(n)), LogicError);

    // forEach visits exactly the members, ascending.
    std::vector<CacheId> visited;
    set.forEach([&](CacheId cache) { visited.push_back(cache); });
    EXPECT_EQ(visited, edges);

    // The popcount scan agrees word by word.
    EXPECT_EQ(set.first(), edges.front());
    EXPECT_EQ(set.countExcluding(edges.front()), edges.size() - 1);
    EXPECT_EQ(set.countExcluding(static_cast<CacheId>(n - 1)),
              edges.size() - 1);
    // Excluding a non-member (or an out-of-domain id) excludes nothing.
    if (n > 2) {
        EXPECT_EQ(set.countExcluding(2), edges.size());
    }
    EXPECT_EQ(set.countExcluding(invalidCacheId), edges.size());
}

TEST_P(SharerSetBoundary, IsOnlySinglePassAtWordEdges)
{
    const unsigned n = GetParam();
    const std::vector<CacheId> probes{
        0, static_cast<CacheId>(n / 2), static_cast<CacheId>(n - 1)};
    for (const CacheId sole : probes) {
        SharerSet set(n);
        EXPECT_FALSE(set.isOnly(sole)) << "n=" << n;
        set.add(sole);
        EXPECT_TRUE(set.isOnly(sole)) << "n=" << n << " " << sole;
        for (const CacheId other : probes) {
            if (other != sole) {
                EXPECT_FALSE(set.isOnly(other))
                    << "n=" << n << " " << other;
            }
        }
        // A second member in any word breaks soleness.
        const CacheId extra = sole == 0 ? 1 : 0;
        set.add(extra);
        EXPECT_FALSE(set.isOnly(sole)) << "n=" << n;
        EXPECT_FALSE(set.isOnly(extra)) << "n=" << n;
    }
}

TEST_P(SharerSetBoundary, LastExcludingScansBackAcrossWords)
{
    const unsigned n = GetParam();
    SharerSet set(n);
    set.add(0);
    set.add(static_cast<CacheId>(n - 1));
    // Excluding the top member must find 0 even when words between
    // them are all zero.
    EXPECT_EQ(set.lastExcluding(static_cast<CacheId>(n - 1)), 0u);
    EXPECT_EQ(set.lastExcluding(0), n - 1);
    EXPECT_EQ(set.lastExcluding(static_cast<CacheId>(n / 2)), n - 1);
    set.remove(static_cast<CacheId>(n - 1));
    EXPECT_EQ(set.lastExcluding(0), invalidCacheId);
}

INSTANTIATE_TEST_SUITE_P(WordEdges, SharerSetBoundary,
                         ::testing::Values(63, 64, 65, 1024));

} // namespace
} // namespace dirsim
