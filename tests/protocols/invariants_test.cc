/**
 * @file
 * Property tests: every protocol maintains its coherence invariants
 * under random reference streams, invalidation protocols leave a
 * writer as the block's sole holder, and a private re-read changes
 * nothing but the read-hit counters.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.hh"
#include "protocols/dir_i_b.hh"
#include "protocols/dir_i_nb.hh"
#include "protocols/registry.hh"
#include "sim/simulator.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

/** Block indices the random streams touch (all below 64). */
constexpr BlockSpace blocks{64};

/** All protocol configurations under test. */
std::vector<std::unique_ptr<CoherenceProtocol>>
allProtocols(unsigned caches)
{
    std::vector<std::unique_ptr<CoherenceProtocol>> protocols;
    for (const auto &name : allSchemes())
        protocols.push_back(makeProtocol(parseScheme(name), caches, blocks));
    protocols.push_back(std::make_unique<DirIB>(caches, blocks, 2));
    protocols.push_back(std::make_unique<DirINB>(caches, blocks, 2));
    return protocols;
}

class ProtocolProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<CoherenceProtocol>
    make(unsigned caches) const
    {
        return makeProtocol(parseScheme(GetParam()), caches, blocks);
    }

    static bool
    isInvalidationScheme(const std::string &name)
    {
        return name != "Dragon";
    }
};

TEST_P(ProtocolProperty, RandomStreamKeepsInvariants)
{
    const unsigned caches = 4;
    auto protocol = make(caches);
    Rng rng(0xfeed);
    std::unordered_set<BlockNum> seen;

    for (int step = 0; step < 20'000; ++step) {
        const auto cache = static_cast<CacheId>(rng.below(caches));
        const auto block = static_cast<BlockNum>(rng.below(64));
        const bool first = seen.insert(block).second;
        if (rng.chance(0.75))
            protocol->read(cache, block, first);
        else
            protocol->write(cache, block, first);
        if (step % 500 == 0)
            protocol->checkAllInvariants();
    }
    protocol->checkAllInvariants();
}

TEST_P(ProtocolProperty, AtMostOneDirtyCopyAlways)
{
    const unsigned caches = 4;
    auto protocol = make(caches);
    Rng rng(0xbead);
    std::unordered_set<BlockNum> seen;

    for (int step = 0; step < 5'000; ++step) {
        const auto cache = static_cast<CacheId>(rng.below(caches));
        const auto block = static_cast<BlockNum>(rng.below(16));
        const bool first = seen.insert(block).second;
        if (rng.chance(0.5))
            protocol->read(cache, block, first);
        else
            protocol->write(cache, block, first);

        unsigned dirty = 0;
        for (CacheId c = 0; c < caches; ++c) {
            dirty += protocol->isDirtyState(
                protocol->cacheState(c, block)) ? 1 : 0;
        }
        ASSERT_LE(dirty, 1u) << "step " << step;
    }
}

TEST_P(ProtocolProperty, WriterIsSoleHolderInInvalidationSchemes)
{
    if (!isInvalidationScheme(GetParam()))
        GTEST_SKIP() << "Dragon updates instead of invalidating";

    const unsigned caches = 4;
    auto protocol = make(caches);
    Rng rng(0xcafe);
    std::unordered_set<BlockNum> seen;

    for (int step = 0; step < 5'000; ++step) {
        const auto cache = static_cast<CacheId>(rng.below(caches));
        const auto block = static_cast<BlockNum>(rng.below(16));
        const bool first = seen.insert(block).second;
        if (rng.chance(0.7)) {
            protocol->read(cache, block, first);
            continue;
        }
        protocol->write(cache, block, first);
        const SharerSet holders = protocol->holders(block);
        ASSERT_EQ(holders.count(), 1u) << "step " << step;
        ASSERT_TRUE(holders.contains(cache)) << "step " << step;
    }
}

TEST_P(ProtocolProperty, WriterAlwaysEndsWithCopy)
{
    const unsigned caches = 4;
    auto protocol = make(caches);
    Rng rng(0xdead);
    std::unordered_set<BlockNum> seen;

    for (int step = 0; step < 5'000; ++step) {
        const auto cache = static_cast<CacheId>(rng.below(caches));
        const auto block = static_cast<BlockNum>(rng.below(16));
        const bool first = seen.insert(block).second;
        protocol->write(cache, block, first);
        ASSERT_TRUE(protocol->holders(block).contains(cache));
    }
}

/** Every cache's state of every block, and every block's holders. */
struct ProtocolState
{
    std::vector<CacheBlockState> states;
    std::vector<SharerSet> holders;
    bool operator==(const ProtocolState &) const = default;
};

ProtocolState
stateOf(const CoherenceProtocol &protocol, BlockNum num_blocks)
{
    ProtocolState state;
    for (BlockNum block = 0; block < num_blocks; ++block) {
        state.holders.push_back(protocol.holders(block));
        for (CacheId cache = 0; cache < protocol.numCaches(); ++cache)
            state.states.push_back(protocol.cacheState(cache, block));
    }
    return state;
}

TEST_P(ProtocolProperty, PrivateRereadChangesOnlyReadHitCounters)
{
    // The premise of the elided walk (simulateTrace() in
    // sim/decoded.hh): on infinite caches, a cache reading a block it
    // made the last reference to changes nothing but Read and RdHit.
    // 65 caches put the holder oracle's SharerStore in hybrid mode.
    constexpr BlockNum num_blocks = 12;
    for (const unsigned caches : {4u, 65u}) {
        SCOPED_TRACE(std::to_string(caches) + " caches");
        auto protocol = make(caches);
        Rng rng(0x5eed + caches);
        std::vector<CacheId> last(num_blocks, invalidCacheId);
        unsigned rereads = 0;
        for (int step = 0; step < 3'000; ++step) {
            const auto block = static_cast<BlockNum>(rng.below(num_blocks));
            if (last[block] != invalidCacheId && rng.chance(0.4)) {
                const EventCounts events = protocol->events();
                const OpCounts ops = protocol->ops();
                const Histogram histogram = protocol->cleanWriteHolders();
                const ProtocolState before = stateOf(*protocol, num_blocks);
                protocol->read(last[block], block, false);
                EventCounts expected = events;
                expected.add(EventType::Read);
                expected.add(EventType::RdHit);
                ASSERT_TRUE(protocol->events() == expected) << "step " << step;
                ASSERT_TRUE(protocol->ops() == ops) << "step " << step;
                ASSERT_TRUE(protocol->cleanWriteHolders() == histogram)
                    << "step " << step;
                ASSERT_TRUE(stateOf(*protocol, num_blocks) == before)
                    << "step " << step;
                ++rereads;
                continue;
            }
            const auto cache = static_cast<CacheId>(rng.below(caches));
            const bool first = last[block] == invalidCacheId;
            if (rng.chance(0.6))
                protocol->read(cache, block, first);
            else
                protocol->write(cache, block, first);
            last[block] = cache;
        }
        EXPECT_GT(rereads, 500u);
    }
}

TEST_P(ProtocolProperty, GeneratedTraceKeepsInvariants)
{
    const Trace trace = generateTrace("thor", 60'000, 77);
    SimConfig config;
    config.invariantCheckPeriod = 5'000;
    EXPECT_NO_THROW(simulateTrace(trace, parseScheme(GetParam()), config));
}

TEST_P(ProtocolProperty, EventIdentitiesHold)
{
    const Trace trace = generateTrace("pops", 60'000, 78);
    const SimResult result = simulateTrace(trace, parseScheme(GetParam()));
    const EventCounts &e = result.events;

    // Read = RdHit + RdMiss + RmFirstRef.
    EXPECT_EQ(e.count(EventType::Read),
              e.count(EventType::RdHit) + e.count(EventType::RdMiss)
                  + e.count(EventType::RmFirstRef));
    // Write = WrtHit + WrtMiss + WmFirstRef.
    EXPECT_EQ(e.count(EventType::Write),
              e.count(EventType::WrtHit) + e.count(EventType::WrtMiss)
                  + e.count(EventType::WmFirstRef));
    // Write-hit subcategories partition the hits.
    EXPECT_EQ(e.count(EventType::WrtHit),
              e.count(EventType::WhBlkCln)
                  + e.count(EventType::WhBlkDrty)
                  + e.count(EventType::WhDistrib)
                  + e.count(EventType::WhLocal));
    // Miss subcategories never exceed their parent.
    EXPECT_LE(e.count(EventType::RmBlkCln)
                  + e.count(EventType::RmBlkDrty),
              e.count(EventType::RdMiss));
    EXPECT_LE(e.count(EventType::WmBlkCln)
                  + e.count(EventType::WmBlkDrty),
              e.count(EventType::WrtMiss));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ProtocolProperty,
    ::testing::Values("Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB",
                      "Berkeley", "YenFu", "DirCV", "Dir2B", "Dir2NB",
                      "Dir3B", "Dir3NB", "DirCVr2"));

TEST(ProtocolInvariantsTest, MixedFleetOnOneStream)
{
    // Drive every protocol with the same stream and ensure all stay
    // self-consistent (catches accidental cross-protocol assumptions
    // in the shared base class).
    const unsigned caches = 4;
    auto protocols = allProtocols(caches);
    Rng rng(0xabcd);
    std::unordered_set<BlockNum> seen;

    for (int step = 0; step < 10'000; ++step) {
        const auto cache = static_cast<CacheId>(rng.below(caches));
        const auto block = static_cast<BlockNum>(rng.below(32));
        const bool first = seen.insert(block).second;
        const bool is_write = rng.chance(0.25);
        for (auto &protocol : protocols) {
            if (is_write)
                protocol->write(cache, block, first);
            else
                protocol->read(cache, block, first);
        }
    }
    for (auto &protocol : protocols)
        protocol->checkAllInvariants();
}

} // namespace
} // namespace dirsim
