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
    LimitedDirectory dir(2, 1);
    LimitedEntry entry = dir.entry(0);
    EXPECT_EQ(entry.addSharer(1), LimitedAddOutcome::Recorded);
    EXPECT_EQ(entry.addSharer(2), LimitedAddOutcome::Recorded);
    EXPECT_EQ(entry.pointerCount(), 2u);
    EXPECT_TRUE(entry.pointsTo(1));
    EXPECT_TRUE(entry.pointsTo(2));
}

TEST(LimitedEntryTest, DuplicateAddIsRecorded)
{
    LimitedDirectory dir(2, 1);
    LimitedEntry entry = dir.entry(0);
    entry.addSharer(1);
    EXPECT_EQ(entry.addSharer(1), LimitedAddOutcome::Recorded);
    EXPECT_EQ(entry.pointerCount(), 1u);
}

TEST(LimitedEntryTest, NoBroadcastOverflowNamesOldestVictim)
{
    LimitedDirectory dir(2, 1);
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
    LimitedDirectory dir(1, 1);
    LimitedEntry entry = dir.entry(0);
    entry.addSharer(1);
    EXPECT_THROW(entry.addSharer(2), LogicError);
}

TEST(LimitedEntryTest, RemoveSharerKeepsOrder)
{
    LimitedDirectory dir(3, 1);
    LimitedEntry entry = dir.entry(0);
    entry.addSharer(5);
    entry.addSharer(6);
    entry.addSharer(7);
    entry.removeSharer(6);
    EXPECT_EQ(pointers(entry), (std::vector<CacheId>{5, 7}));
}

TEST(LimitedEntryTest, ResetClearsEverything)
{
    LimitedDirectory dir(2, 1);
    LimitedEntry entry = dir.entry(0);
    entry.addSharer(1);
    entry.addSharer(2); // full
    entry.reset();
    EXPECT_EQ(entry.pointerCount(), 0u);
    EXPECT_FALSE(entry.pointsTo(1));
    EXPECT_EQ(entry.addSharer(3), LimitedAddOutcome::Recorded);
    EXPECT_EQ(pointers(entry), (std::vector<CacheId>{3}));
}

TEST(LimitedEntryTest, ZeroPointersRejected)
{
    EXPECT_THROW(LimitedDirectory(0, 1), UsageError);
}

TEST(LimitedDirectoryTest, EntriesInheritConfiguration)
{
    LimitedDirectory dir(3, 64);
    EXPECT_EQ(dir.pointerBudget(), 3u);
    // Every entry records up to the directory's budget, then names
    // its oldest pointer as the victim.
    LimitedEntry entry = dir.entry(42);
    for (CacheId cache = 0; cache < 3; ++cache)
        EXPECT_EQ(entry.addSharer(cache), LimitedAddOutcome::Recorded);
    CacheId victim = invalidCacheId;
    EXPECT_EQ(entry.addSharer(3, &victim),
              LimitedAddOutcome::EvictionRequired);
    EXPECT_EQ(victim, 0u);
}

TEST(LimitedDirectoryTest, FindWithoutCreate)
{
    LimitedDirectory dir(1, 16);
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
    EXPECT_THROW(LimitedDirectory(0, 4), UsageError);
}

TEST(LimitedDirectoryTest, RejectsBudgetPastTheStateWord)
{
    // The registry's Dir<i> limit; a larger budget is rejected before
    // any arena is allocated.
    EXPECT_THROW(LimitedDirectory(LimitedEntry::maxPointers + 1, 1),
                 UsageError);
}

/**
 * The FIFO and eviction contract at budgets above 8 pointers, on the
 * first and last block of the arena, against a plain FIFO reference,
 * with the neighbouring block's entry checked untouched after every
 * step.
 */
TEST(LimitedDirectoryTest, ContractHoldsAtLargeBudgetsAtTheArenaEdges)
{
    constexpr std::uint64_t blockCount = 1000;
    for (const unsigned budget : {12u, 16u}) {
        LimitedDirectory dir(budget, blockCount);
        for (const BlockNum block : {BlockNum{0}, blockCount - 1}) {
            const BlockNum neighbour = block == 0 ? 1 : block - 1;
            dir.entry(neighbour).addSharer(999);
            LimitedEntry entry = dir.entry(block);
            std::vector<CacheId> model;
            Rng rng(budget * 10 + block);
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
                    if (present || model.size() < budget) {
                        ASSERT_EQ(outcome, LimitedAddOutcome::Recorded);
                        if (!present)
                            model.push_back(cache);
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
                }
                ASSERT_EQ(pointers(entry), model) << "step " << step;
                const ConstLimitedEntry other =
                    std::as_const(dir).entry(neighbour);
                ASSERT_EQ(other.pointerCount(), 1u);
                ASSERT_TRUE(other.pointsTo(999));
            }
            dir.entry(neighbour).reset();
        }
        EXPECT_THROW(dir.entry(blockCount), LogicError);
    }
}

} // namespace
} // namespace dirsim
