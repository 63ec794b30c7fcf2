/**
 * @file
 * Unit tests for the CoherenceProtocol base-class machinery, via a
 * minimal concrete protocol: classification of remote copies, the
 * holder oracle, helper preconditions, and error paths.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "protocols/protocol.hh"

namespace dirsim
{
namespace
{

/** Block indices the tests may touch (99 and 12345 lie outside). */
constexpr BlockSpace blocks{64};

/** Smallest possible protocol: MSI-ish with no ops accounting. */
class MiniProtocol : public CoherenceProtocol
{
  public:
    static constexpr CacheBlockState stClean = 1;
    static constexpr CacheBlockState stDirty = 2;

    using CoherenceProtocol::CoherenceProtocol;

    std::string name() const override { return "Mini"; }
    bool isDirtyState(CacheBlockState state) const override
    {
        return state == stDirty;
    }

    // Expose protected helpers for the tests.
    using CoherenceProtocol::classifyOthers;
    using CoherenceProtocol::install;
    using CoherenceProtocol::invalidateIn;
    using CoherenceProtocol::setState;

    Others lastMissOthers;

  protected:
    void
    handleReadMiss(CacheId cache, BlockNum block, const Others &others,
                   bool) override
    {
        lastMissOthers = others;
        // Keep multiple clean copies; flush dirty owners.
        if (others.anyDirty)
            setState(others.dirtyOwner, block, stClean);
        install(cache, block, stClean);
    }

    void
    handleWriteHit(CacheId cache, BlockNum block,
                   CacheBlockState) override
    {
        eventCounts.add(EventType::WhBlkCln);
        holders(block).forEach([&](CacheId holder) {
            if (holder != cache)
                invalidateIn(holder, block);
        });
        setState(cache, block, stDirty);
    }

    void
    handleWriteMiss(CacheId cache, BlockNum block,
                    const Others &others, bool) override
    {
        lastMissOthers = others;
        holders(block).forEach([&](CacheId holder) {
            invalidateIn(holder, block);
        });
        install(cache, block, stDirty);
    }
};

/**
 * A finite cache that never evicts and whose lines the tests can edit
 * behind the holder oracle's back.
 */
class FakeCache : public CacheModel
{
  public:
    CacheBlockState lookup(BlockNum block) const override
    {
        const auto it = lines.find(block);
        return it == lines.end() ? stateNotPresent : it->second;
    }
    CacheBlockState access(BlockNum block) override
    {
        return lookup(block);
    }
    CacheLine set(BlockNum block, CacheBlockState state) override
    {
        lines[block] = state;
        return {};
    }
    CacheBlockState invalidate(BlockNum block) override
    {
        const CacheBlockState state = lookup(block);
        lines.erase(block);
        return state;
    }
    std::size_t residentBlocks() const override { return lines.size(); }
    void clear() override { lines.clear(); }
    void forEach(const std::function<void(BlockNum, CacheBlockState)> &fn)
        const override
    {
        for (const auto &[block, state] : lines)
            fn(block, state);
    }

    std::map<BlockNum, CacheBlockState> lines;
};

TEST(ProtocolBaseTest, RejectsEmptyDomain)
{
    EXPECT_THROW(MiniProtocol(0, blocks), UsageError);
}

TEST(ProtocolBaseTest, OutOfRangeCacheIdPanics)
{
    MiniProtocol protocol(2, blocks);
    EXPECT_THROW(protocol.read(2, 1, true), LogicError);
    EXPECT_THROW(protocol.write(7, 1, true), LogicError);
    EXPECT_THROW(protocol.cacheState(2, 1), LogicError);
}

TEST(ProtocolBaseTest, HoldersOfUnknownBlockIsEmpty)
{
    MiniProtocol protocol(4, blocks);
    const SharerSet sharers = protocol.holders(12345);
    EXPECT_TRUE(sharers.empty());
    EXPECT_EQ(sharers.numCaches(), 4u);
}

TEST(ProtocolBaseTest, ClassifyOthersSeesCleanAndDirty)
{
    MiniProtocol protocol(4, blocks);
    protocol.read(1, 10, true);
    protocol.read(2, 10, false);

    const auto others = protocol.classifyOthers(0, 10);
    EXPECT_EQ(others.numOthers, 2u);
    EXPECT_FALSE(others.anyDirty);

    protocol.write(1, 10, false); // 1 dirty, others invalidated
    const auto after = protocol.classifyOthers(0, 10);
    EXPECT_EQ(after.numOthers, 1u);
    EXPECT_TRUE(after.anyDirty);
    EXPECT_EQ(after.dirtyOwner, 1u);
}

TEST(ProtocolBaseTest, ClassifyOthersExcludesSelf)
{
    MiniProtocol protocol(4, blocks);
    protocol.read(0, 10, true);
    const auto others = protocol.classifyOthers(0, 10);
    EXPECT_EQ(others.numOthers, 0u);
}

TEST(ProtocolBaseTest, SetStateRequiresResidency)
{
    MiniProtocol protocol(2, blocks);
    EXPECT_THROW(protocol.setState(0, 99, MiniProtocol::stDirty),
                 LogicError);
}

TEST(ProtocolBaseTest, InstallIsIdempotentInOracle)
{
    MiniProtocol protocol(2, blocks);
    protocol.install(0, 5, MiniProtocol::stClean);
    protocol.install(0, 5, MiniProtocol::stDirty);
    EXPECT_EQ(protocol.holders(5).count(), 1u);
    EXPECT_EQ(protocol.cacheState(0, 5), MiniProtocol::stDirty);
}

TEST(ProtocolBaseTest, InvalidateInUnknownIsNoop)
{
    MiniProtocol protocol(2, blocks);
    EXPECT_NO_THROW(protocol.invalidateIn(0, 5));
    EXPECT_TRUE(protocol.holders(5).empty());
}

TEST(ProtocolBaseTest, ResidentBlocksListsLiveBlocksOnly)
{
    MiniProtocol protocol(2, blocks);
    protocol.read(0, 1, true);
    protocol.read(0, 2, true);
    protocol.invalidateIn(0, 1);
    const auto resident = protocol.residentBlocks();
    ASSERT_EQ(resident.size(), 1u);
    EXPECT_EQ(resident[0], 2u);
}

TEST(ProtocolBaseTest, FirstRefMissPassesEmptyOthers)
{
    MiniProtocol protocol(4, blocks);
    protocol.read(3, 42, true);
    EXPECT_EQ(protocol.lastMissOthers.numOthers, 0u);
    EXPECT_FALSE(protocol.lastMissOthers.anyDirty);
}

TEST(ProtocolBaseTest, InstructionCountingOnly)
{
    MiniProtocol protocol(2, blocks);
    protocol.instruction();
    protocol.instruction();
    EXPECT_EQ(protocol.events().count(EventType::Instr), 2u);
    EXPECT_EQ(protocol.events().totalRefs(), 2u);
    EXPECT_TRUE(protocol.residentBlocks().empty());
}

TEST(ProtocolBaseTest, BaseInvariantDetectsOracleDesync)
{
    // On finite caches the base check compares each cache's state
    // with the holder oracle and the dirty owner. Edit a cache behind
    // the oracle's back and the check must throw.
    std::vector<FakeCache *> fakes;
    const CacheFactory factory = [&fakes](const BlockSpace &) {
        auto cache = std::make_unique<FakeCache>();
        fakes.push_back(cache.get());
        return cache;
    };
    const auto build = [&] {
        fakes.clear();
        auto protocol = std::make_unique<MiniProtocol>(2, blocks, factory);
        protocol->read(0, 7, true);  // cache 0 holds 7 clean
        protocol->write(1, 8, true); // cache 1 holds 8 dirty
        EXPECT_NO_THROW(protocol->checkAllInvariants());
        return protocol;
    };

    const auto dropped = build();
    fakes[0]->lines.erase(7); // a line the oracle still lists
    EXPECT_THROW(dropped->checkAllInvariants(), LogicError);

    const auto extra = build();
    fakes[0]->lines[9] = MiniProtocol::stClean; // a line it never saw
    EXPECT_THROW(extra->checkAllInvariants(), LogicError);

    const auto stale = build();
    fakes[1]->lines[8] = MiniProtocol::stClean; // the owner went clean
    EXPECT_THROW(stale->checkAllInvariants(), LogicError);
}

TEST(ProtocolBaseTest, DenseModeMatchesSparseClassification)
{
    // classifyOthers() answers from the holder oracle and the tracked
    // dirty owner; it must agree with a survey of every other cache's
    // state, both with real per-cache arenas and with cache state
    // derived from the oracle.
    const std::optional<CoherenceProtocol::OracleStates> modes[] = {
        std::nullopt,
        CoherenceProtocol::OracleStates{MiniProtocol::stClean,
                                        MiniProtocol::stDirty}};
    for (const auto &oracle : modes) {
        MiniProtocol protocol(4, blocks, {}, oracle);
        protocol.read(1, 10, true);
        protocol.read(2, 10, false);
        protocol.write(1, 10, false); // 1 dirty, 2 invalidated
        protocol.read(3, 10, false);  // 1 flushed clean; 1 and 3 share
        protocol.write(3, 11, true);  // 3 holds block 11 dirty
        for (const BlockNum block : {BlockNum{10}, BlockNum{11}}) {
            for (CacheId cache = 0; cache < 4; ++cache) {
                unsigned num_others = 0;
                CacheId any_holder = invalidCacheId;
                CacheId dirty_owner = invalidCacheId;
                for (CacheId other = 0; other < 4; ++other) {
                    const CacheBlockState state =
                        protocol.cacheState(other, block);
                    if (other == cache || state == stateNotPresent)
                        continue;
                    ++num_others;
                    any_holder = other;
                    if (protocol.isDirtyState(state))
                        dirty_owner = other;
                }
                const auto others = protocol.classifyOthers(cache, block);
                EXPECT_EQ(others.numOthers, num_others);
                EXPECT_EQ(others.anyHolder, any_holder);
                EXPECT_EQ(others.anyDirty, dirty_owner != invalidCacheId);
                EXPECT_EQ(others.dirtyOwner, dirty_owner);
            }
        }
        EXPECT_EQ(protocol.holders(10).toVector(),
                  (std::vector<CacheId>{1, 3}));
        EXPECT_EQ(protocol.residentBlocks(),
                  (std::vector<BlockNum>{10, 11}));
        EXPECT_NO_THROW(protocol.checkAllInvariants());
    }
}

TEST(ProtocolBaseTest, DenseReservationGuards)
{
    // The block space is fixed at construction: references and
    // installs outside it are rejected instead of touching memory
    // outside the arenas.
    MiniProtocol protocol(2, blocks);
    EXPECT_THROW(protocol.read(0, blocks.count, true), LogicError);
    EXPECT_THROW(protocol.write(1, blocks.count + 7, true), LogicError);
    EXPECT_THROW(protocol.install(0, 99, MiniProtocol::stClean),
                 LogicError);
    EXPECT_THROW(protocol.checkInvariants(99), LogicError);
    EXPECT_TRUE(protocol.residentBlocks().empty());
}

TEST(ProtocolBaseTest, EventAccountingOnHitAndMiss)
{
    MiniProtocol protocol(2, blocks);
    protocol.read(0, 1, true);
    protocol.read(0, 1, false);
    protocol.read(1, 1, false);
    EXPECT_EQ(protocol.events().count(EventType::Read), 3u);
    EXPECT_EQ(protocol.events().count(EventType::RmFirstRef), 1u);
    EXPECT_EQ(protocol.events().count(EventType::RdHit), 1u);
    EXPECT_EQ(protocol.events().count(EventType::RdMiss), 1u);
    EXPECT_EQ(protocol.events().count(EventType::RmBlkCln), 1u);
}

} // namespace
} // namespace dirsim
