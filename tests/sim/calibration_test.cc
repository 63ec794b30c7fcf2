/**
 * @file
 * End-to-end calibration: the standard synthetic suite must
 * reproduce the qualitative results of the paper's evaluation —
 * scheme orderings, approximate ratios, and the Figure 1
 * single-invalidation property. These are the claims EXPERIMENTS.md
 * reports; this test keeps them true under code changes.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/suite.hh"
#include "trace/filter.hh"

namespace dirsim
{
namespace
{

/** One shared grid run for the whole test file (it is not free). */
class CalibrationTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        SuiteParams params;
        params.refsPerTrace = 500'000;
        params.seed = 88;
        traces = new std::vector<Trace>(standardSuite(params));
        grid = new std::vector<SchemeResults>(
            ExperimentRunner()
                .run(parseSchemes({"Dir1NB", "WTI", "Dir0B", "Dragon",
                                   "DirNNB", "Berkeley"}),
                     *traces)
                .schemes);
    }

    static void
    TearDownTestSuite()
    {
        delete grid;
        delete traces;
        grid = nullptr;
        traces = nullptr;
    }

    static const SchemeResults &
    scheme(const std::string &name)
    {
        for (const auto &results : *grid) {
            if (results.scheme == name)
                return results;
        }
        throw std::runtime_error("scheme not in grid: " + name);
    }

    static double
    pipelinedTotal(const std::string &name)
    {
        return scheme(name).averagedCost(paperPipelinedCosts()).total();
    }

    static std::vector<Trace> *traces;
    static std::vector<SchemeResults> *grid;
};

std::vector<Trace> *CalibrationTest::traces = nullptr;
std::vector<SchemeResults> *CalibrationTest::grid = nullptr;

TEST_F(CalibrationTest, Figure2SchemeOrdering)
{
    // Dragon < Dir0B < WTI << Dir1NB on the averaged suite.
    EXPECT_LT(pipelinedTotal("Dragon"), pipelinedTotal("Dir0B"));
    EXPECT_LT(pipelinedTotal("Dir0B"), pipelinedTotal("WTI"));
    EXPECT_LT(pipelinedTotal("WTI"), pipelinedTotal("Dir1NB"));
}

TEST_F(CalibrationTest, Dir1NBIsSeveralTimesDir0B)
{
    // The paper measures a factor of ~6.5 at 3.2M references; at the
    // test's shorter traces warm-up sharing misses dilute the gap, so
    // we require a robust factor instead of the exact ratio.
    EXPECT_GT(pipelinedTotal("Dir1NB"), 2.5 * pipelinedTotal("Dir0B"));
}

TEST_F(CalibrationTest, Dir0BWithinFactorTwoOfDragon)
{
    // "The performance of Dir0B approaches that of the Dragon
    // scheme" — paper ratio 1.46.
    const double ratio =
        pipelinedTotal("Dir0B") / pipelinedTotal("Dragon");
    EXPECT_GT(ratio, 1.0);
    EXPECT_LT(ratio, 2.2);
}

TEST_F(CalibrationTest, SequentialInvalidationNearlyFree)
{
    // Section 6: DirN NB costs only marginally more than Dir0B
    // (paper: 0.0491 -> 0.0499, +1.6%).
    const double broadcast = pipelinedTotal("Dir0B");
    const double sequential = pipelinedTotal("DirNNB");
    EXPECT_GE(sequential, broadcast * 0.999);
    EXPECT_LT(sequential, broadcast * 1.06);
}

TEST_F(CalibrationTest, BerkeleyBetweenDir0BAndDragon)
{
    EXPECT_LT(pipelinedTotal("Berkeley"), pipelinedTotal("Dir0B"));
    EXPECT_GT(pipelinedTotal("Berkeley"), pipelinedTotal("Dragon"));
}

TEST_F(CalibrationTest, Figure1MostCleanWritesInvalidateAtMostOne)
{
    // "over 85% of the writes to previously-clean blocks cause
    // invalidations in no more than one cache".
    const Histogram merged =
        scheme("Dir0B").mergedCleanWriteHolders();
    ASSERT_GT(merged.samples(), 0u);
    EXPECT_GT(merged.fractionAtMost(1), 0.85);
}

TEST_F(CalibrationTest, Figure3PeroIsMuchCheaper)
{
    // "the numbers for POPS and THOR are similar, while those for
    // PERO are much smaller" (less sharing).
    const BusCosts costs = paperPipelinedCosts();
    const auto &dir0b = scheme("Dir0B");
    const double pops = dir0b.perTrace[0].cost(costs).total();
    const double thor = dir0b.perTrace[1].cost(costs).total();
    const double pero = dir0b.perTrace[2].cost(costs).total();
    EXPECT_LT(pero, 0.7 * pops);
    EXPECT_LT(pero, 0.7 * thor);
}

TEST_F(CalibrationTest, NonPipelinedKeepsRelativeOrdering)
{
    const BusCosts nonpipe = paperNonPipelinedCosts();
    const auto total = [&](const std::string &name) {
        return scheme(name).averagedCost(nonpipe).total();
    };
    EXPECT_LT(total("Dragon"), total("Dir0B"));
    EXPECT_LT(total("Dir0B"), total("WTI"));
    EXPECT_LT(total("WTI"), total("Dir1NB"));
    // And each scheme costs more than on the pipelined bus.
    for (const auto &name : {"Dir1NB", "WTI", "Dir0B", "Dragon"})
        EXPECT_GT(total(name), pipelinedTotal(name)) << name;
}

TEST_F(CalibrationTest, Table4MagnitudesInBand)
{
    // Averaged event frequencies must be in the paper's order of
    // magnitude (paper values: Dir1NB rm 5.18%, Dir0B rm 0.62%,
    // Dragon wh-distrib 1.74%).
    const EventFreqs dir1nb = scheme("Dir1NB").averagedFreqs();
    EXPECT_GT(dir1nb.get(EventType::RdMiss), 0.02);
    EXPECT_LT(dir1nb.get(EventType::RdMiss), 0.10);

    const EventFreqs dir0b = scheme("Dir0B").averagedFreqs();
    EXPECT_GT(dir0b.get(EventType::RdMiss), 0.002);
    EXPECT_LT(dir0b.get(EventType::RdMiss), 0.02);

    const EventFreqs dragon = scheme("Dragon").averagedFreqs();
    EXPECT_GT(dragon.get(EventType::WhDistrib), 0.003);
    EXPECT_LT(dragon.get(EventType::WhDistrib), 0.03);
}

TEST_F(CalibrationTest, Section52SpinLockImpact)
{
    // Excluding lock references improves Dir1NB dramatically (paper:
    // 0.32 -> 0.12 cycles/ref) while Dir0B barely moves.
    const BusCosts costs = paperPipelinedCosts();
    std::vector<Trace> filtered;
    for (const auto &trace : *traces)
        filtered.push_back(excludeLockRefs(trace));
    const auto filtered_grid =
        ExperimentRunner()
            .run(parseSchemes({"Dir1NB", "Dir0B"}), filtered)
            .schemes;

    const double dir1nb_before = pipelinedTotal("Dir1NB");
    const double dir1nb_after =
        filtered_grid[0].averagedCost(costs).total();
    EXPECT_LT(dir1nb_after, 0.75 * dir1nb_before);

    const double dir0b_before = pipelinedTotal("Dir0B");
    const double dir0b_after =
        filtered_grid[1].averagedCost(costs).total();
    EXPECT_NEAR(dir0b_after, dir0b_before, 0.25 * dir0b_before);
}

TEST_F(CalibrationTest, DragonCostDominatedByMissesAndUpdates)
{
    // Figure 4: Dragon splits its cycles between loading caches and
    // write updates; it has no invalidation or directory cycles.
    const CycleBreakdown dragon =
        scheme("Dragon").averagedCost(paperPipelinedCosts());
    EXPECT_DOUBLE_EQ(dragon.invalidate, 0.0);
    EXPECT_DOUBLE_EQ(dragon.dirAccess, 0.0);
    EXPECT_GT(dragon.memAccess, 0.0);
    EXPECT_GT(dragon.writeThroughOrUpdate, 0.0);
}

TEST_F(CalibrationTest, WtiDominatedByWriteThroughs)
{
    // Figure 4: "most of the bus cycles consumed in WTI are due to
    // the write-through cache policy".
    const CycleBreakdown wti =
        scheme("WTI").averagedCost(paperPipelinedCosts());
    EXPECT_GT(wti.writeThroughOrUpdate, 0.5 * wti.total());
}

TEST_F(CalibrationTest, DirectoryBandwidthIsSmall)
{
    // "the number of cycles used for directory access ... is small
    // relative to the total number of cycles" (Dir0B).
    const CycleBreakdown dir0b =
        scheme("Dir0B").averagedCost(paperPipelinedCosts());
    EXPECT_LT(dir0b.dirAccess, 0.25 * dir0b.total());
}

TEST_F(CalibrationTest, Figure5DragonTransactionsAreShort)
{
    // Dragon's average bus transaction is shorter than Dir0B's (many
    // single-cycle updates), so a fixed per-transaction overhead q
    // hurts Dragon relatively more (Section 5.1).
    const BusCosts costs = paperPipelinedCosts();
    const CycleBreakdown dragon =
        scheme("Dragon").averagedCost(costs);
    const CycleBreakdown dir0b = scheme("Dir0B").averagedCost(costs);
    EXPECT_LT(dragon.cyclesPerTransaction(),
              dir0b.cyclesPerTransaction());

    const double gap_q0 = dir0b.total() / dragon.total();
    const double gap_q1 = dir0b.totalWithOverhead(1.0)
        / dragon.totalWithOverhead(1.0);
    EXPECT_LT(gap_q1, gap_q0);
}

} // namespace
} // namespace dirsim
