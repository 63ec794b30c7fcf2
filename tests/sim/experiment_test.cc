/** @file Unit tests for sim/experiment.hh. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/suite.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

std::vector<Trace>
smallSuite()
{
    SuiteParams params;
    params.refsPerTrace = 40'000;
    params.seed = 5;
    return standardSuite(params);
}

/** Every named scheme on every trace, through the runner. */
std::vector<SchemeResults>
runSchemes(const std::vector<std::string> &schemes,
           const std::vector<Trace> &traces)
{
    return ExperimentRunner().run(parseSchemes(schemes), traces).schemes;
}

TEST(ExperimentTest, GridCoversSchemesAndTraces)
{
    const auto traces = smallSuite();
    const auto grid = runSchemes({"Dir0B", "Dragon"}, traces);
    ASSERT_EQ(grid.size(), 2u);
    EXPECT_EQ(grid[0].scheme, "Dir0B");
    EXPECT_EQ(grid[0].perTrace.size(), 3u);
    EXPECT_EQ(grid[0].perTrace[0].traceName, "pops");
    EXPECT_EQ(grid[0].perTrace[2].traceName, "pero");
}

TEST(ExperimentTest, GridRejectsEmptyInputs)
{
    const auto traces = smallSuite();
    EXPECT_THROW(runSchemes({}, traces), UsageError);
    EXPECT_THROW(runSchemes({"Dir0B"}, {}), UsageError);
}

TEST(ExperimentTest, AveragedFreqsIsMeanOfPerTrace)
{
    const auto traces = smallSuite();
    const auto grid = runSchemes({"Dir0B"}, traces);
    const EventFreqs avg = grid[0].averagedFreqs();
    double manual = 0.0;
    for (const auto &result : grid[0].perTrace)
        manual += result.freqs().get(EventType::RdMiss);
    manual /= 3.0;
    EXPECT_NEAR(avg.get(EventType::RdMiss), manual, 1e-12);
}

TEST(ExperimentTest, MergedHistogramSumsSamples)
{
    const auto traces = smallSuite();
    const auto grid = runSchemes({"Dir0B"}, traces);
    std::uint64_t total = 0;
    for (const auto &result : grid[0].perTrace)
        total += result.cleanWriteHolders.samples();
    EXPECT_EQ(grid[0].mergedCleanWriteHolders().samples(), total);
}

TEST(ExperimentTest, MergedOpsAndRefs)
{
    const auto traces = smallSuite();
    const auto grid = runSchemes({"WTI"}, traces);
    std::uint64_t refs = 0;
    std::uint64_t wt = 0;
    for (const auto &result : grid[0].perTrace) {
        refs += result.totalRefs;
        wt += result.ops.writeThroughs;
    }
    EXPECT_EQ(grid[0].mergedRefs(), refs);
    EXPECT_EQ(grid[0].mergedOps().writeThroughs, wt);
}

TEST(ExperimentTest, AveragedCostIsMeanOfPerTraceCosts)
{
    const auto traces = smallSuite();
    const auto grid = runSchemes({"Dragon"}, traces);
    const BusCosts costs = paperPipelinedCosts();
    const CycleBreakdown avg = grid[0].averagedCost(costs);
    double manual = 0.0;
    for (const auto &result : grid[0].perTrace)
        manual += result.cost(costs).total();
    manual /= 3.0;
    EXPECT_NEAR(avg.total(), manual, 1e-12);
}

TEST(ExperimentTest, PaperCostAgreesWithOpsCost)
{
    const auto traces = smallSuite();
    const auto grid = runSchemes({"Dir0B", "Dragon"}, traces);
    const BusCosts costs = paperPipelinedCosts();
    for (const auto &scheme : grid) {
        const double paper_path = scheme.paperCost(costs).total();
        const double ops_path = scheme.averagedCost(costs).total();
        EXPECT_NEAR(paper_path, ops_path, 0.02 * ops_path + 1e-9)
            << scheme.scheme;
    }
}

TEST(ExperimentTest, PaperCostFallsBackForParameterizedSchemes)
{
    const auto traces = smallSuite();
    const auto grid = runSchemes({"Dir2B"}, traces);
    const BusCosts costs = paperPipelinedCosts();
    EXPECT_NEAR(grid[0].paperCost(costs).total(),
                grid[0].averagedCost(costs).total(), 1e-12);
}

TEST(ExperimentTest, AverageBreakdownsComponentWise)
{
    CycleBreakdown a;
    a.memAccess = 0.1;
    a.transactions = 0.02;
    CycleBreakdown b;
    b.memAccess = 0.3;
    b.invalidate = 0.1;
    b.transactions = 0.04;
    const CycleBreakdown avg = averageBreakdowns({a, b});
    EXPECT_DOUBLE_EQ(avg.memAccess, 0.2);
    EXPECT_DOUBLE_EQ(avg.invalidate, 0.05);
    EXPECT_DOUBLE_EQ(avg.transactions, 0.03);
    EXPECT_THROW(averageBreakdowns({}), UsageError);
}

TEST(ExperimentTest, EffectiveProcessorLimit)
{
    // The paper's Section 5 estimate: the best scheme costs ~0.0336
    // bus cycles per reference, a 10-MIPS processor makes one data
    // reference per instruction, and a 100ns bus then sustains "a
    // maximum performance of 15 effective processors".
    CycleBreakdown cost;
    cost.memAccess = 0.0336;
    const double limit = effectiveProcessorLimit(cost, 10.0, 100.0);
    EXPECT_NEAR(limit, 15.0, 1.0);
    EXPECT_THROW(effectiveProcessorLimit(cost, 0.0, 100.0),
                 UsageError);
}

TEST(ExperimentTest, StandardSuiteNamesAndSizes)
{
    const auto traces = smallSuite();
    ASSERT_EQ(traces.size(), 3u);
    EXPECT_EQ(traces[0].name(), "pops");
    EXPECT_EQ(traces[1].name(), "thor");
    EXPECT_EQ(traces[2].name(), "pero");
    for (const auto &trace : traces)
        EXPECT_GE(trace.size(), 40'000u);
}

TEST(ExperimentTest, SuiteEnvironmentOverrides)
{
    setenv("DIRSIM_SUITE_REFS", "12345", 1);
    setenv("DIRSIM_SUITE_SEED", "77", 1);
    const SuiteParams params = SuiteParams::fromEnvironment();
    EXPECT_EQ(params.refsPerTrace, 12345u);
    EXPECT_EQ(params.seed, 77u);

    setenv("DIRSIM_SUITE_REFS", "not-a-number", 1);
    EXPECT_THROW(SuiteParams::fromEnvironment(), UsageError);

    unsetenv("DIRSIM_SUITE_REFS");
    unsetenv("DIRSIM_SUITE_SEED");
    const SuiteParams defaults = SuiteParams::fromEnvironment();
    EXPECT_EQ(defaults.refsPerTrace, SuiteParams{}.refsPerTrace);
}

TEST(ExperimentTest, SuiteRejectsZeroRefs)
{
    SuiteParams params;
    params.refsPerTrace = 0;
    EXPECT_THROW(standardSuite(params), UsageError);
}

} // namespace
} // namespace dirsim
