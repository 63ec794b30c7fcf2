/**
 * @file
 * Finite-cache protocol simulation: replacement evictions interact
 * correctly with coherence state, dirty victims are written back, and
 * every scheme's invariants survive capacity pressure.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/finite_cache.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "protocols/registry.hh"
#include "sim/decoded.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

/** Block indices the scenarios touch (all below 32). */
constexpr BlockSpace blocks{32};

/** Tiny caches: 8 blocks, 2 ways, so evictions are constant. */
CacheFactory
tinyFactory()
{
    FiniteCacheConfig config;
    config.capacityBytes = 8 * defaultBlockBytes;
    config.ways = 2;
    config.blockBytes = defaultBlockBytes;
    return [config](const BlockSpace &space) {
        return std::make_unique<FiniteCache>(config, space);
    };
}

TEST(FiniteModeTest, InfiniteByDefault)
{
    const auto protocol = makeProtocol(parseScheme("Dir0B"), 2, blocks);
    EXPECT_FALSE(protocol->finiteCaches());
}

TEST(FiniteModeTest, FactoryEnablesFiniteMode)
{
    const auto protocol =
        makeProtocol(parseScheme("Dir0B"), 2, blocks, tinyFactory());
    EXPECT_TRUE(protocol->finiteCaches());
}

TEST(FiniteModeTest, CapacityEvictionsDropBlocks)
{
    const auto protocol =
        makeProtocol(parseScheme("DirNNB"), 2, blocks, tinyFactory());
    // Touch 32 distinct blocks from one cache: only 8 can remain.
    for (BlockNum block = 0; block < 32; ++block)
        protocol->read(0, block, true);
    unsigned resident = 0;
    for (BlockNum block = 0; block < 32; ++block)
        resident += protocol->holders(block).contains(0) ? 1 : 0;
    EXPECT_EQ(resident, 8u);
    protocol->checkAllInvariants();
}

TEST(FiniteModeTest, DirtyEvictionWritesBack)
{
    const auto protocol =
        makeProtocol(parseScheme("DirNNB"), 2, blocks, tinyFactory());
    // Blocks 0, 8, 16 map to the same set (8 sets); dirty the first.
    protocol->write(0, 0, true);
    protocol->read(0, 8, true);
    protocol->read(0, 16, true); // evicts dirty block 0
    EXPECT_FALSE(protocol->holders(0).contains(0));
    EXPECT_EQ(protocol->ops().evictionWriteBacks, 1u);
}

TEST(FiniteModeTest, CleanEvictionIsFree)
{
    const auto protocol =
        makeProtocol(parseScheme("DirNNB"), 2, blocks, tinyFactory());
    protocol->read(0, 0, true);
    protocol->read(0, 8, true);
    protocol->read(0, 16, true); // evicts clean block 0
    EXPECT_EQ(protocol->ops().evictionWriteBacks, 0u);
}

TEST(FiniteModeTest, EvictedBlockRemisses)
{
    const auto protocol =
        makeProtocol(parseScheme("Dir0B"), 2, blocks, tinyFactory());
    protocol->read(0, 0, true);
    protocol->read(0, 8, true);
    protocol->read(0, 16, true); // evicts 0
    protocol->read(0, 0, false); // capacity miss
    EXPECT_EQ(protocol->events().count(EventType::RdMiss), 1u);
}

TEST(FiniteModeTest, EvictionDoesNotDisturbOtherCaches)
{
    const auto protocol =
        makeProtocol(parseScheme("DirNNB"), 3, blocks, tinyFactory());
    protocol->read(0, 0, true);
    protocol->read(1, 0, false);
    // Cache 0 churns its set until block 0 is evicted from it.
    protocol->read(0, 8, true);
    protocol->read(0, 16, true);
    EXPECT_FALSE(protocol->holders(0).contains(0));
    EXPECT_TRUE(protocol->holders(0).contains(1));
    protocol->checkAllInvariants();
}

TEST(FiniteModeTest, WriteBackCostAppearsInWriteBackRow)
{
    const auto protocol =
        makeProtocol(parseScheme("DirNNB"), 2, blocks, tinyFactory());
    protocol->write(0, 0, true);
    protocol->read(0, 8, true);
    protocol->read(0, 16, true);
    const CycleBreakdown cost = costFromOps(
        protocol->ops(), 3, paperPipelinedCosts());
    EXPECT_DOUBLE_EQ(cost.writeBack, 4.0 / 3.0);
}

class FiniteModeAllSchemes
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FiniteModeAllSchemes, InvariantsSurviveCapacityPressure)
{
    const Trace trace = generateTrace("pops", 60'000, 99);
    SimConfig config;
    config.invariantCheckPeriod = 5'000;
    FiniteCacheConfig cache_config;
    cache_config.capacityBytes = 4 * 1024; // 256 blocks: heavy churn
    cache_config.ways = 2;
    config.finiteCache = cache_config;
    EXPECT_NO_THROW(simulateTrace(trace, parseScheme(GetParam()), config));
}

TEST_P(FiniteModeAllSchemes, SmallerCachesMissMore)
{
    const Trace trace = generateTrace("pero", 60'000, 7);
    SimConfig infinite;
    const SchemeSpec scheme = parseScheme(GetParam());
    const SimResult base = simulateTrace(trace, scheme, infinite);

    SimConfig finite;
    FiniteCacheConfig cache_config;
    cache_config.capacityBytes = 8 * 1024;
    cache_config.ways = 2;
    finite.finiteCache = cache_config;
    const SimResult capped = simulateTrace(trace, scheme, finite);

    EXPECT_GT(capped.events.count(EventType::RdMiss),
              base.events.count(EventType::RdMiss));
    // Costs rise accordingly.
    const BusCosts costs = paperPipelinedCosts();
    EXPECT_GT(capped.cost(costs).total(), base.cost(costs).total());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FiniteModeAllSchemes,
    ::testing::Values("Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB",
                      "Berkeley", "YenFu", "DirCV", "Dir2B",
                      "Dir2NB"));

class NeverEvictingMatchesInfinite
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(NeverEvictingMatchesInfinite, SameCountersAndStatesEveryReference)
{
    // A direct-mapped cache with one set per block never evicts, so it
    // is the paper's infinite cache with every state stored. Two-state
    // schemes derive their infinite-cache states from the holder
    // oracle instead (OracleStates); this is the reference for that.
    constexpr BlockSpace space{16};
    FiniteCacheConfig config;
    config.capacityBytes = space.count * defaultBlockBytes;
    config.ways = 1;
    const CacheFactory never_evicting = [config](const BlockSpace &s) {
        return std::make_unique<FiniteCache>(config, s);
    };
    const SchemeSpec scheme = parseScheme(GetParam());
    for (const unsigned caches : {2u, 3u, 4u, 8u, 70u}) {
        const auto infinite = makeProtocol(scheme, caches, space);
        const auto finite =
            makeProtocol(scheme, caches, space, never_evicting);
        Rng rng(caches);
        std::vector<bool> seen(space.count);
        for (int step = 0; step < 4'000; ++step) {
            const auto cache = static_cast<CacheId>(rng.below(caches));
            const auto block =
                static_cast<BlockNum>(rng.below(space.count));
            const bool first = !seen[block];
            seen[block] = true;
            const bool write = rng.below(3) == 0;
            for (CoherenceProtocol *protocol :
                 {infinite.get(), finite.get()}) {
                if (write)
                    protocol->write(cache, block, first);
                else
                    protocol->read(cache, block, first);
            }
            for (CacheId c = 0; c < caches; ++c) {
                for (BlockNum b = 0; b < space.count; ++b) {
                    if (infinite->cacheState(c, b)
                        != finite->cacheState(c, b)) {
                        FAIL() << caches << " caches, step " << step
                               << ": cache " << c << " block " << b
                               << " infinite "
                               << +infinite->cacheState(c, b)
                               << " finite " << +finite->cacheState(c, b);
                    }
                }
            }
            ASSERT_TRUE(infinite->events() == finite->events()
                        && infinite->ops() == finite->ops()
                        && infinite->cleanWriteHolders()
                               == finite->cleanWriteHolders())
                << caches << " caches, step " << step;
        }
    }
}

// Every scheme family of tests/golden/wide_sweep.json, DirCVr2 too.
INSTANTIATE_TEST_SUITE_P(
    WideFamilies, NeverEvictingMatchesInfinite,
    ::testing::Values("Dir0B", "Dir1NB", "Dir2NB", "Dir4NB", "Dir2B",
                      "Dir4B", "DirNNB", "DirCV", "DirCVr2", "DirCVr12",
                      "WTI", "Dragon", "Berkeley", "YenFu"));

TEST(FiniteModeTest, PrebuiltInfiniteProtocolRejectsFiniteConfig)
{
    // The overload taking an already-built protocol cannot apply the
    // geometry retroactively; it must reject rather than silently
    // ignore SimConfig::finiteCache.
    const DecodedTrace decoded =
        decodeTrace(generateTrace("pero", 5'000, 7), defaultBlockBytes,
                    SharingModel::ByProcess);
    SimConfig config;
    config.finiteCache = FiniteCacheConfig{};
    const auto infinite =
        makeProtocol(parseScheme("Dir0B"), 4, decoded.blockSpace());
    EXPECT_THROW(simulateTrace(decoded, *infinite, config), UsageError);

    // A protocol that does run finite caches is honored.
    const auto finite =
        makeProtocol(parseScheme("Dir0B"), 4, decoded.blockSpace(),
                     tinyFactory());
    EXPECT_NO_THROW(simulateTrace(decoded, *finite, config));
}

TEST(FiniteModeTest, BlockSizeMismatchRejected)
{
    const Trace trace = generateTrace("pero", 5'000, 7);
    SimConfig config;
    config.blockBytes = 32;
    FiniteCacheConfig cache_config; // blockBytes 16
    config.finiteCache = cache_config;
    EXPECT_THROW(simulateTrace(trace, parseScheme("Dir0B"), config),
                 UsageError);
}

} // namespace
} // namespace dirsim
