/** @file Unit tests for serve/discipline.hh. */

#include <vector>

#include <gtest/gtest.h>

#include "serve/discipline.hh"

namespace dirsim
{
namespace
{

std::vector<std::uint64_t>
drain(RoundRobinDiscipline &queue)
{
    std::vector<std::uint64_t> order;
    while (auto run = queue.dequeue())
        order.push_back(run->id);
    return order;
}

TEST(RoundRobinDisciplineTest, OneIdentityServesInArrivalOrder)
{
    // No X-Dirsim-Client header: every run shares the anonymous
    // identity, so the queue is first come, first served.
    RoundRobinDiscipline rr;
    EXPECT_TRUE(rr.empty());
    rr.enqueue({1, ""});
    rr.enqueue({2, ""});
    rr.enqueue({3, ""});
    EXPECT_EQ(rr.size(), 3u);
    EXPECT_EQ(drain(rr), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_TRUE(rr.empty());
    EXPECT_EQ(rr.dequeue(), std::nullopt);
}

TEST(RoundRobinDisciplineTest, RemoveDropsOnlyTheTarget)
{
    RoundRobinDiscipline rr;
    rr.enqueue({1, ""});
    rr.enqueue({2, ""});
    rr.enqueue({3, ""});
    EXPECT_TRUE(rr.remove(2));
    EXPECT_FALSE(rr.remove(99));
    EXPECT_EQ(drain(rr), (std::vector<std::uint64_t>{1, 3}));
}

TEST(RoundRobinDisciplineTest, InterleavesAcrossClients)
{
    // Batch client submits 1,2,3 first; two interactive clients
    // submit one run each afterwards. Round-robin must not make them
    // wait out the whole batch.
    RoundRobinDiscipline rr;
    rr.enqueue({1, "batch"});
    rr.enqueue({2, "batch"});
    rr.enqueue({3, "batch"});
    rr.enqueue({4, "alice"});
    rr.enqueue({5, "bob"});
    EXPECT_EQ(rr.size(), 5u);
    EXPECT_EQ(drain(rr), (std::vector<std::uint64_t>{1, 4, 5, 2, 3}));
}

TEST(RoundRobinDisciplineTest, SingleClientDegeneratesToFcfs)
{
    RoundRobinDiscipline rr;
    rr.enqueue({1, "only"});
    rr.enqueue({2, "only"});
    rr.enqueue({3, "only"});
    EXPECT_EQ(drain(rr), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(RoundRobinDisciplineTest, AnonymousSubmissionsShareOneIdentity)
{
    RoundRobinDiscipline rr;
    rr.enqueue({1, ""});
    rr.enqueue({2, "named"});
    rr.enqueue({3, ""});
    // "" is one identity: its two runs take turns with "named".
    EXPECT_EQ(drain(rr), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(RoundRobinDisciplineTest, RemoveDrainsEmptyClients)
{
    RoundRobinDiscipline rr;
    rr.enqueue({1, "alice"});
    rr.enqueue({2, "bob"});
    EXPECT_TRUE(rr.remove(1));
    EXPECT_FALSE(rr.remove(1));
    EXPECT_EQ(rr.size(), 1u);
    EXPECT_EQ(drain(rr), (std::vector<std::uint64_t>{2}));
    // A drained client re-enters cleanly.
    rr.enqueue({7, "alice"});
    EXPECT_EQ(drain(rr), (std::vector<std::uint64_t>{7}));
}

TEST(RoundRobinDisciplineTest, ReEnqueueAfterServiceGoesToBack)
{
    RoundRobinDiscipline rr;
    rr.enqueue({1, "a"});
    rr.enqueue({2, "b"});
    EXPECT_EQ(rr.dequeue()->id, 1u);
    // "a" submits again while "b" still waits: "b" goes first.
    rr.enqueue({3, "a"});
    EXPECT_EQ(rr.dequeue()->id, 2u);
    EXPECT_EQ(rr.dequeue()->id, 3u);
}

} // namespace
} // namespace dirsim
