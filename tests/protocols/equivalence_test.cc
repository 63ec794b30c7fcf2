/**
 * @file
 * Cross-protocol identities the paper's taxonomy predicts:
 *
 *  - WTI and Dir0B share a state-change model, so their hit/miss
 *    event frequencies are identical on any trace (Section 5);
 *  - Dir_i NB with i = 1 is Dir1NB;
 *  - Dir_i NB and Dir_i B with i >= n degenerate to the full-map
 *    DirN NB (no overflow can ever occur).
 */

#include <gtest/gtest.h>

#include "protocols/dir_i_b.hh"
#include "protocols/dir_i_nb.hh"
#include "protocols/registry.hh"
#include "sim/decoded.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

const DecodedTrace &
testStream()
{
    static const DecodedTrace decoded =
        decodeTrace(generateTrace("pops", 80'000, 4242),
                    defaultBlockBytes, SharingModel::ByProcess);
    return decoded;
}

SimResult
run(const std::string &scheme)
{
    return simulateTrace(testStream(), parseScheme(scheme));
}

void
expectSameEvents(const SimResult &a, const SimResult &b,
                 std::initializer_list<EventType> events)
{
    for (const EventType event : events) {
        EXPECT_EQ(a.events.count(event), b.events.count(event))
            << a.scheme << " vs " << b.scheme << " on "
            << toString(event);
    }
}

TEST(EquivalenceTest, WtiAndDir0BShareStateChangeModel)
{
    const SimResult wti = run("WTI");
    const SimResult dir0b = run("Dir0B");
    // "Since Dir0B and WTI both rely on the same basic data
    // state-change model ... their event frequencies are identical."
    expectSameEvents(wti, dir0b,
                     {EventType::Instr, EventType::Read,
                      EventType::RdHit, EventType::RdMiss,
                      EventType::RmFirstRef, EventType::Write,
                      EventType::WrtHit, EventType::WrtMiss,
                      EventType::WmFirstRef});
}

TEST(EquivalenceTest, DirINBWithOnePointerMatchesDir1NB)
{
    // DirINB(1): same residency decisions as Dir1NB, hence identical
    // event counts (op accounting differs only in how the combined
    // flush+invalidate of a dirty displacement is split).
    const SimResult one_ptr = run("Dir1NB");
    const DecodedTrace &stream = testStream();
    DirINB family(stream.cachesNeeded, stream.blockSpace(), 1);
    const SimResult family_run = simulateTrace(stream, family);
    expectSameEvents(one_ptr, family_run,
                     {EventType::Instr, EventType::Read,
                      EventType::RdHit, EventType::RdMiss,
                      EventType::RmBlkCln, EventType::RmBlkDrty,
                      EventType::RmFirstRef, EventType::Write,
                      EventType::WrtHit, EventType::WhBlkCln,
                      EventType::WhBlkDrty, EventType::WrtMiss,
                      EventType::WmBlkCln, EventType::WmBlkDrty,
                      EventType::WmFirstRef});
    // Total displacement messages agree up to the split of a dirty
    // read displacement, which Dir1NB issues as one combined
    // flush+invalidate but DirINB(1) as a flush plus an overflow
    // eviction.
    EXPECT_EQ(one_ptr.ops.invalMsgs,
              family_run.ops.invalMsgs + family_run.ops.overflowInvals
                  - family_run.events.count(EventType::RmBlkDrty));
}

TEST(EquivalenceTest, DirINBWithFullBudgetMatchesFullMap)
{
    const DecodedTrace &stream = testStream();
    const unsigned caches = stream.cachesNeeded;
    DirINB family(caches, stream.blockSpace(), caches);
    const SimResult family_run = simulateTrace(stream, family);
    const SimResult full_map = run("DirNNB");

    for (std::size_t e = 0; e < numEventTypes; ++e) {
        const auto event = static_cast<EventType>(e);
        EXPECT_EQ(family_run.events.count(event),
                  full_map.events.count(event))
            << toString(event);
    }
    // With no overflow possible, even the operation counts agree.
    EXPECT_EQ(family_run.ops.invalMsgs, full_map.ops.invalMsgs);
    EXPECT_EQ(family_run.ops.memSupplies, full_map.ops.memSupplies);
    EXPECT_EQ(family_run.ops.dirtySupplies,
              full_map.ops.dirtySupplies);
    EXPECT_EQ(family_run.ops.overflowInvals, 0u);
}

TEST(EquivalenceTest, DirIBWithFullBudgetNeverBroadcasts)
{
    const DecodedTrace &stream = testStream();
    const unsigned caches = stream.cachesNeeded;
    DirIB family(caches, stream.blockSpace(), caches);
    const SimResult family_run = simulateTrace(stream, family);
    EXPECT_EQ(family_run.ops.broadcastInvals, 0u);
    const SimResult full_map = run("DirNNB");
    EXPECT_EQ(family_run.ops.invalMsgs, full_map.ops.invalMsgs);
}

TEST(EquivalenceTest, InvalidationProtocolsShareMissFrequencies)
{
    // Dir0B, DirNNB, YenFu, DirCV, and the Dir_i B family (no
    // eviction overflow) all allow the same residency, so all miss
    // counts agree.
    const SimResult dir0b = run("Dir0B");
    const SimResult dirnnb = run("DirNNB");
    const SimResult dir2b = run("Dir2B");
    const SimResult yenfu = run("YenFu");
    const SimResult dircv = run("DirCV");
    for (const auto *result : {&dirnnb, &dir2b, &yenfu, &dircv}) {
        expectSameEvents(dir0b, *result,
                         {EventType::RdHit, EventType::RdMiss,
                          EventType::RmBlkCln, EventType::RmBlkDrty,
                          EventType::WrtHit, EventType::WhBlkCln,
                          EventType::WhBlkDrty, EventType::WrtMiss,
                          EventType::WmBlkCln, EventType::WmBlkDrty});
    }
}

TEST(EquivalenceTest, BerkeleyMatchesDir0BResidency)
{
    // Berkeley invalidates exactly where Dir0B does; only supply
    // paths and ownership states differ, so hit/miss counts agree.
    const SimResult berkeley = run("Berkeley");
    const SimResult dir0b = run("Dir0B");
    expectSameEvents(berkeley, dir0b,
                     {EventType::RdHit, EventType::RdMiss,
                      EventType::WrtHit, EventType::WrtMiss});
}

TEST(EquivalenceTest, DragonHasLowestMissCount)
{
    // An update protocol never invalidates, so its miss count is a
    // lower bound for every invalidation protocol.
    const SimResult dragon = run("Dragon");
    for (const auto &scheme : {"Dir0B", "Dir1NB", "WTI", "DirNNB"}) {
        const SimResult other = run(scheme);
        EXPECT_LE(dragon.events.count(EventType::RdMiss),
                  other.events.count(EventType::RdMiss))
            << scheme;
        EXPECT_LE(dragon.events.count(EventType::WrtMiss),
                  other.events.count(EventType::WrtMiss))
            << scheme;
    }
}

} // namespace
} // namespace dirsim
