/** @file Unit tests for bus/cost_model.hh. */

#include <gtest/gtest.h>

#include "bus/cost_model.hh"
#include "common/logging.hh"
#include "sim/simulator.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

TEST(CycleBreakdownTest, TotalSumsComponents)
{
    CycleBreakdown breakdown;
    breakdown.dirAccess = 0.1;
    breakdown.invalidate = 0.2;
    breakdown.writeBack = 0.3;
    breakdown.memAccess = 0.4;
    breakdown.writeThroughOrUpdate = 0.5;
    EXPECT_DOUBLE_EQ(breakdown.total(), 1.5);
}

TEST(CycleBreakdownTest, CyclesPerTransaction)
{
    CycleBreakdown breakdown;
    breakdown.memAccess = 0.05;
    breakdown.transactions = 0.01;
    EXPECT_DOUBLE_EQ(breakdown.cyclesPerTransaction(), 5.0);
    breakdown.transactions = 0.0;
    EXPECT_DOUBLE_EQ(breakdown.cyclesPerTransaction(), 0.0);
}

TEST(CycleBreakdownTest, OverheadScalesWithTransactions)
{
    CycleBreakdown breakdown;
    breakdown.memAccess = 0.05;
    breakdown.transactions = 0.02;
    EXPECT_DOUBLE_EQ(breakdown.totalWithOverhead(0.0), 0.05);
    EXPECT_DOUBLE_EQ(breakdown.totalWithOverhead(2.0), 0.09);
}

TEST(CleanWriteProfileTest, FromHistogram)
{
    Histogram hist;
    hist.add(0, 6);
    hist.add(1, 3);
    hist.add(3, 1);
    const auto profile = CleanWriteProfile::fromHistogram(hist);
    EXPECT_DOUBLE_EQ(profile.meanOtherHolders, 0.6);
    EXPECT_DOUBLE_EQ(profile.fracWithHolders, 0.4);
}

TEST(CleanWriteProfileTest, EmptyHistogramGivesPaperDefault)
{
    const auto profile = CleanWriteProfile::fromHistogram(Histogram{});
    EXPECT_DOUBLE_EQ(profile.meanOtherHolders, 1.0);
    EXPECT_DOUBLE_EQ(profile.fracWithHolders, 1.0);
}

TEST(CostModelTest, SchemeKindRoundTrip)
{
    for (const SchemeKind kind :
         {SchemeKind::Dir1NB, SchemeKind::DirNNB, SchemeKind::Dir0B,
          SchemeKind::WTI, SchemeKind::Dragon, SchemeKind::Berkeley}) {
        const auto parsed = schemeKindFromName(toString(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
}

TEST(CostModelTest, ParameterizedFamiliesHaveNoClosedForm)
{
    EXPECT_FALSE(schemeKindFromName("Dir2B").has_value());
    EXPECT_FALSE(schemeKindFromName("Dir4NB").has_value());
    EXPECT_FALSE(schemeKindFromName("bogus").has_value());
}

TEST(CostModelTest, CostFromOpsRejectsZeroRefs)
{
    EXPECT_THROW(costFromOps(OpCounts{}, 0, paperPipelinedCosts()),
                 UsageError);
}

TEST(CostModelTest, CostFromOpsWeightsEachCategory)
{
    OpCounts ops;
    ops.memSupplies = 10;
    ops.cacheSupplies = 4;
    ops.dirtySupplies = 2;
    ops.invalMsgs = 5;
    ops.broadcastInvals = 3;
    ops.dirChecks = 7;
    ops.writeThroughs = 11;
    ops.writeUpdates = 13;
    ops.overflowInvals = 1;
    ops.busTransactions = 20;

    const BusCosts costs = paperPipelinedCosts();
    const CycleBreakdown cost = costFromOps(ops, 1000, costs);
    EXPECT_DOUBLE_EQ(cost.memAccess, (10 * 5.0 + 4 * 5.0 + 2 * 1.0)
                                         / 1000.0);
    EXPECT_DOUBLE_EQ(cost.writeBack, 2 * 4.0 / 1000.0);
    EXPECT_DOUBLE_EQ(cost.invalidate, (5 + 1 + 3) * 1.0 / 1000.0);
    EXPECT_DOUBLE_EQ(cost.dirAccess, 7 * 1.0 / 1000.0);
    EXPECT_DOUBLE_EQ(cost.writeThroughOrUpdate,
                     (11 + 13) * 1.0 / 1000.0);
    EXPECT_DOUBLE_EQ(cost.transactions, 0.02);
}

TEST(CostModelTest, BroadcastCostOption)
{
    OpCounts ops;
    ops.broadcastInvals = 10;
    CostOptions options;
    options.broadcastCost = 8.0;
    const CycleBreakdown cost =
        costFromOps(ops, 1000, paperPipelinedCosts(), options);
    EXPECT_DOUBLE_EQ(cost.invalidate, 10 * 8.0 / 1000.0);
}

/**
 * The paper's central methodological split: one simulation yields
 * event frequencies; costs follow from any bus model. Our ops-based
 * accounting must agree with the closed-form frequency model for
 * every standard scheme, on both buses.
 */
class FreqVsOps
    : public ::testing::TestWithParam<std::tuple<std::string, BusKind>>
{
};

TEST_P(FreqVsOps, Agree)
{
    const auto &[scheme, bus_kind] = GetParam();
    static const Trace trace = generateTrace("pops", 120'000, 314);
    const SimResult result = simulateTrace(trace, parseScheme(scheme));

    const BusCosts costs =
        deriveBusCosts(paperBusTiming(), bus_kind);
    const auto kind = schemeKindFromName(scheme);
    ASSERT_TRUE(kind.has_value());

    const CycleBreakdown from_freqs = costFromFreqs(
        *kind, result.freqs(), costs, result.profile());
    const CycleBreakdown from_ops =
        costFromOps(result.ops, result.totalRefs, costs);

    const double tol = 1e-9 + 0.01 * from_ops.total();
    EXPECT_NEAR(from_freqs.total(), from_ops.total(), tol) << scheme;
    EXPECT_NEAR(from_freqs.transactions, from_ops.transactions,
                1e-9 + 0.01 * from_ops.transactions);
    EXPECT_NEAR(from_freqs.dirAccess, from_ops.dirAccess, 1e-9);
    EXPECT_NEAR(from_freqs.writeBack, from_ops.writeBack, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesTimesBuses, FreqVsOps,
    ::testing::Combine(::testing::Values("Dir1NB", "WTI", "Dir0B",
                                         "Dragon", "DirNNB",
                                         "Berkeley"),
                       ::testing::Values(BusKind::Pipelined,
                                         BusKind::NonPipelined)));

} // namespace
} // namespace dirsim
