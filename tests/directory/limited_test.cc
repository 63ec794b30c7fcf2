/** @file Unit tests for directory/limited.hh (Dir_i entries). */

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "directory/limited.hh"

namespace dirsim
{
namespace
{

std::vector<CacheId>
pointers(const LimitedEntry &entry)
{
    const CacheIdSpan ptrs = entry.pointerList();
    return {ptrs.begin(), ptrs.end()};
}

TEST(LimitedEntryTest, RecordsUpToBudget)
{
    LimitedDirectory dir(2, /* broadcast */ true, 1);
    LimitedEntry entry = dir.entry(0);
    EXPECT_EQ(entry.addSharer(1), LimitedAddOutcome::Recorded);
    EXPECT_EQ(entry.addSharer(2), LimitedAddOutcome::Recorded);
    EXPECT_EQ(entry.pointerCount(), 2u);
    EXPECT_TRUE(entry.pointsTo(1));
    EXPECT_TRUE(entry.pointsTo(2));
    EXPECT_FALSE(entry.broadcastRequired());
}

TEST(LimitedEntryTest, DuplicateAddIsRecorded)
{
    LimitedDirectory dir(2, true, 1);
    LimitedEntry entry = dir.entry(0);
    entry.addSharer(1);
    EXPECT_EQ(entry.addSharer(1), LimitedAddOutcome::Recorded);
    EXPECT_EQ(entry.pointerCount(), 1u);
}

TEST(LimitedEntryTest, OverflowSetsBroadcastBit)
{
    LimitedDirectory dir(1, true, 1);
    LimitedEntry entry = dir.entry(0);
    entry.addSharer(1);
    EXPECT_EQ(entry.addSharer(2), LimitedAddOutcome::BroadcastSet);
    EXPECT_TRUE(entry.broadcastRequired());
    // Pointers are meaningless in broadcast mode.
    EXPECT_EQ(entry.pointerCount(), 0u);
    EXPECT_EQ(entry.addSharer(3), LimitedAddOutcome::AlreadyBroadcast);
}

TEST(LimitedEntryTest, NoBroadcastOverflowNamesOldestVictim)
{
    LimitedDirectory dir(2, false, 1);
    LimitedEntry entry = dir.entry(0);
    entry.addSharer(1);
    entry.addSharer(2);
    CacheId victim = invalidCacheId;
    EXPECT_EQ(entry.addSharer(3, &victim),
              LimitedAddOutcome::EvictionRequired);
    EXPECT_EQ(victim, 1u); // FIFO: oldest pointer
    // Entry unchanged until the caller removes the victim.
    EXPECT_TRUE(entry.pointsTo(1));
    entry.removeSharer(victim);
    EXPECT_EQ(entry.addSharer(3, &victim),
              LimitedAddOutcome::Recorded);
    EXPECT_TRUE(entry.pointsTo(2));
    EXPECT_TRUE(entry.pointsTo(3));
}

TEST(LimitedEntryTest, NoBroadcastOverflowWithoutVictimPanics)
{
    LimitedDirectory dir(1, false, 1);
    LimitedEntry entry = dir.entry(0);
    entry.addSharer(1);
    EXPECT_THROW(entry.addSharer(2), LogicError);
}

TEST(LimitedEntryTest, RemoveSharerKeepsOrder)
{
    LimitedDirectory dir(3, false, 1);
    LimitedEntry entry = dir.entry(0);
    entry.addSharer(5);
    entry.addSharer(6);
    entry.addSharer(7);
    entry.removeSharer(6);
    EXPECT_EQ(pointers(entry), (std::vector<CacheId>{5, 7}));
}

TEST(LimitedEntryTest, ResetClearsEverything)
{
    LimitedDirectory dir(1, true, 1);
    LimitedEntry entry = dir.entry(0);
    entry.addSharer(1);
    entry.addSharer(2); // broadcast
    entry.setDirty(true);
    entry.reset();
    EXPECT_FALSE(entry.broadcastRequired());
    EXPECT_FALSE(entry.dirty());
    EXPECT_EQ(entry.pointerCount(), 0u);
    EXPECT_EQ(entry.addSharer(3), LimitedAddOutcome::Recorded);
}

TEST(LimitedEntryTest, ZeroPointersRejected)
{
    EXPECT_THROW(LimitedDirectory(0, true, 1), UsageError);
    EXPECT_THROW(LimitedDirectory(0, false, 1), UsageError);
}

TEST(LimitedDirectoryTest, EntriesInheritConfiguration)
{
    LimitedDirectory dir(3, true, 64);
    EXPECT_EQ(dir.pointerBudget(), 3u);
    EXPECT_TRUE(dir.broadcastAllowed());
    // Every entry records up to the directory's budget, then
    // overflows into broadcast mode.
    LimitedEntry entry = dir.entry(42);
    for (CacheId cache = 0; cache < 3; ++cache)
        EXPECT_EQ(entry.addSharer(cache), LimitedAddOutcome::Recorded);
    EXPECT_EQ(entry.addSharer(3), LimitedAddOutcome::BroadcastSet);
}

TEST(LimitedDirectoryTest, FindWithoutCreate)
{
    LimitedDirectory dir(1, false, 16);
    const LimitedDirectory &view = dir;
    EXPECT_EQ(view.entry(9).pointerCount(), 0u);
    dir.entry(9).addSharer(4);
    EXPECT_TRUE(view.entry(9).pointsTo(4));
    // Outside the directory, both accessors panic.
    EXPECT_THROW(dir.entry(16), LogicError);
    EXPECT_THROW(view.entry(16), LogicError);
}

TEST(LimitedDirectoryTest, RejectsZeroBudget)
{
    EXPECT_THROW(LimitedDirectory(0, true, 4), UsageError);
}

TEST(LimitedDirectoryTest, RejectsBudgetPastTheStateWord)
{
    // The per-block word counts pointers in 30 bits; a larger budget
    // is rejected before any arena is allocated.
    EXPECT_THROW(LimitedDirectory(LimitedEntry::countMask + 1, false, 1),
                 UsageError);
}

/**
 * The FIFO, broadcast and eviction contract, with the dirty bit kept
 * beside the count in one state word, at budgets above 8 pointers, on
 * the first and last block of the arena, against a plain FIFO
 * reference, with the neighbouring block's entry checked untouched
 * after every step.
 */
TEST(LimitedDirectoryTest, ContractHoldsAtLargeBudgetsAtTheArenaEdges)
{
    constexpr std::uint64_t blockCount = 1000;
    for (const unsigned budget : {12u, 16u}) {
        for (const bool broadcast : {false, true}) {
            LimitedDirectory dir(budget, broadcast, blockCount);
            for (const BlockNum block : {BlockNum{0}, blockCount - 1}) {
                const BlockNum neighbour = block == 0 ? 1 : block - 1;
                dir.entry(neighbour).addSharer(999);
                dir.entry(neighbour).setDirty(true);
                LimitedEntry entry = dir.entry(block);
                std::vector<CacheId> model;
                bool model_broadcast = false;
                bool model_dirty = false;
                Rng rng(budget * 10 + block + (broadcast ? 1 : 0));
                for (int step = 0; step < 2000; ++step) {
                    const auto cache =
                        static_cast<CacheId>(rng.below(2 * budget));
                    const auto op = rng.below(10);
                    if (op < 6) {
                        CacheId victim = invalidCacheId;
                        const LimitedAddOutcome outcome =
                            entry.addSharer(cache, &victim);
                        const bool present =
                            std::find(model.begin(), model.end(), cache)
                            != model.end();
                        if (model_broadcast) {
                            ASSERT_EQ(outcome,
                                      LimitedAddOutcome::AlreadyBroadcast);
                        } else if (present) {
                            ASSERT_EQ(outcome, LimitedAddOutcome::Recorded);
                        } else if (model.size() < budget) {
                            ASSERT_EQ(outcome, LimitedAddOutcome::Recorded);
                            model.push_back(cache);
                        } else if (broadcast) {
                            ASSERT_EQ(outcome,
                                      LimitedAddOutcome::BroadcastSet);
                            model.clear();
                            model_broadcast = true;
                        } else {
                            ASSERT_EQ(outcome,
                                      LimitedAddOutcome::EvictionRequired);
                            ASSERT_EQ(victim, model.front());
                            entry.removeSharer(victim);
                            model.erase(model.begin());
                            ASSERT_EQ(entry.addSharer(cache),
                                      LimitedAddOutcome::Recorded);
                            model.push_back(cache);
                        }
                    } else if (op < 9) {
                        entry.removeSharer(cache);
                        const auto it =
                            std::find(model.begin(), model.end(), cache);
                        if (it != model.end())
                            model.erase(it);
                    } else {
                        entry.reset();
                        model.clear();
                        model_broadcast = false;
                        model_dirty = false;
                    }
                    if (step % 7 == 0) {
                        model_dirty = !model_dirty;
                        entry.setDirty(model_dirty);
                    }
                    ASSERT_EQ(entry.dirty(), model_dirty);
                    ASSERT_EQ(entry.broadcastRequired(), model_broadcast);
                    ASSERT_EQ(pointers(entry), model) << "step " << step;
                    const ConstLimitedEntry other =
                        std::as_const(dir).entry(neighbour);
                    ASSERT_EQ(other.pointerCount(), 1u);
                    ASSERT_TRUE(other.pointsTo(999));
                    ASSERT_TRUE(other.dirty());
                    ASSERT_FALSE(other.broadcastRequired());
                }
                dir.entry(neighbour).reset();
            }
            EXPECT_THROW(dir.entry(blockCount), LogicError);
        }
    }
}

} // namespace
} // namespace dirsim
