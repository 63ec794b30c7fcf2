/**
 * @file
 * Cross-block-size properties: the structural identities of the
 * event taxonomy and the WTI ≡ Dir0B frequency identity must hold at
 * every block size, and coarser blocks must reduce compulsory
 * misses (while possibly adding false-sharing invalidations).
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

class BlockSizeTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    static const Trace &
    trace()
    {
        static const Trace t = generateTrace("pops", 80'000, 55);
        return t;
    }

    SimResult
    run(const std::string &scheme) const
    {
        SimConfig config;
        config.blockBytes = GetParam();
        return simulateTrace(trace(), parseScheme(scheme), config);
    }
};

TEST_P(BlockSizeTest, EventIdentitiesHold)
{
    const SimResult result = run("Dir0B");
    const EventCounts &e = result.events;
    EXPECT_EQ(e.count(EventType::Read),
              e.count(EventType::RdHit) + e.count(EventType::RdMiss)
                  + e.count(EventType::RmFirstRef));
    EXPECT_EQ(e.count(EventType::Write),
              e.count(EventType::WrtHit) + e.count(EventType::WrtMiss)
                  + e.count(EventType::WmFirstRef));
}

TEST_P(BlockSizeTest, WtiMatchesDir0BAtEveryBlockSize)
{
    const SimResult wti = run("WTI");
    const SimResult dir0b = run("Dir0B");
    for (const EventType event :
         {EventType::RdHit, EventType::RdMiss, EventType::WrtHit,
          EventType::WrtMiss, EventType::RmFirstRef,
          EventType::WmFirstRef}) {
        EXPECT_EQ(wti.events.count(event), dir0b.events.count(event))
            << toString(event) << " at " << GetParam() << "B";
    }
}

TEST_P(BlockSizeTest, InvariantsHold)
{
    SimConfig config;
    config.blockBytes = GetParam();
    config.invariantCheckPeriod = 10'000;
    EXPECT_NO_THROW(simulateTrace(trace(), parseScheme("DirNNB"), config));
    EXPECT_NO_THROW(simulateTrace(trace(), parseScheme("Dragon"), config));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockSizeTest,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u,
                                           128u));

TEST(BlockSizeTrendTest, CoarserBlocksReduceCompulsoryMisses)
{
    const Trace trace = generateTrace("pero", 80'000, 56);
    std::uint64_t previous = ~0ull;
    for (const unsigned block_bytes : {4u, 16u, 64u}) {
        SimConfig config;
        config.blockBytes = block_bytes;
        const SimResult result =
            simulateTrace(trace, parseScheme("Dragon"), config);
        const std::uint64_t first_refs =
            result.events.count(EventType::RmFirstRef)
            + result.events.count(EventType::WmFirstRef);
        EXPECT_LT(first_refs, previous) << block_bytes;
        previous = first_refs;
    }
}

TEST(BlockSizeTrendTest, FalseSharingOffsetsCoalescing)
{
    // Compulsory misses fall monotonically with block size (previous
    // test), so if coherence behaved neutrally the total miss rate
    // would fall too. Instead, co-locating lock words with migratory
    // data couples unrelated invalidations: Dir0B's (non-first-ref)
    // read-miss rate RISES from 8B to 32B blocks — false sharing
    // eating the coalescing gains.
    const Trace trace = generateTrace("pops", 80'000, 57);
    const auto coherence_misses = [&](unsigned block_bytes) {
        SimConfig config;
        config.blockBytes = block_bytes;
        const SimResult result =
            simulateTrace(trace, parseScheme("Dir0B"), config);
        return result.freqs().get(EventType::RdMiss);
    };
    EXPECT_GT(coherence_misses(32), coherence_misses(8));
}

} // namespace
} // namespace dirsim
