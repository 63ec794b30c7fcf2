/**
 * @file
 * Golden view-parity test: every paper view rendered from a JSONL
 * artifacts file must be byte-identical to the view rendered from
 * the live in-process grid, one case per view. This is the contract
 * that makes `dirsim_report` a faithful re-renderer: CellRecord
 * carries raw integer counters, so nothing is lost (or rounded) on
 * the way through the file.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "bus/bus_model.hh"
#include "obs/artifacts.hh"
#include "sim/report.hh"
#include "sim/suite.hh"

namespace dirsim
{
namespace
{

/** One small grid, run once, with its artifacts text. */
struct ParityFixtureState
{
    GridResult grid;
    std::vector<SchemeResults> reloaded;
};

const ParityFixtureState &
state()
{
    static const ParityFixtureState fixture = [] {
        // The acceptance path: a grid of the paper's and Section
        // 6's schemes x the standard suite whose JSONL artifacts must
        // re-render every view bit-identically.
        SuiteParams params;
        params.refsPerTrace = 25'000;
        params.seed = 13;

        std::ostringstream os;
        JsonlSink sink(os);
        const ExperimentRunner runner;
        ParityFixtureState built;
        built.grid = runWithArtifacts(
            runner,
            parseSchemes({"Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB",
                          "Dir1B", "Dir2B", "Dir4B", "Dir2NB",
                          "Dir4NB", "DirCV", "YenFu", "Berkeley"}),
            standardSuite(params), SimConfig{}, sink);

        std::istringstream in(os.str());
        built.reloaded = toSchemeResults(loadArtifacts(in).cells);
        return built;
    }();
    return fixture;
}

/** The named view over @p grid. */
std::string
renderView(const std::string &name,
           const std::vector<SchemeResults> &grid)
{
    std::ostringstream os;
    printView(os, *findView(name), grid);
    return os.str();
}

/** The view renders something, and the same bytes from both grids. */
void
expectViewParity(const std::string &name)
{
    const std::string reloaded = renderView(name, state().reloaded);
    EXPECT_FALSE(reloaded.empty()) << name;
    EXPECT_EQ(reloaded, renderView(name, state().grid.schemes)) << name;
}

TEST(ReportParityTest, Table4EventFrequencies)
{
    EXPECT_EQ(eventFrequencyTable(state().reloaded).toString(),
              eventFrequencyTable(state().grid.schemes).toString());
    expectViewParity("table4");
}

TEST(ReportParityTest, Table5CostBreakdownBothBusModels)
{
    for (const BusCosts &costs :
         {paperPipelinedCosts(), paperNonPipelinedCosts()}) {
        EXPECT_EQ(
            costBreakdownTable(state().reloaded, costs).toString(),
            costBreakdownTable(state().grid.schemes, costs)
                .toString());
    }
    expectViewParity("table5");
}

TEST(ReportParityTest, Figure1InvalidationHistogram)
{
    const SchemeResults *reloaded =
        findScheme(state().reloaded, "Dir0B");
    const SchemeResults *live =
        findScheme(state().grid.schemes, "Dir0B");
    ASSERT_NE(reloaded, nullptr);
    ASSERT_NE(live, nullptr);
    EXPECT_GT(reloaded->mergedCleanWriteHolders().samples(), 0u);
    EXPECT_EQ(invalidationHistogramTable(*reloaded).toString(),
              invalidationHistogramTable(*live).toString());
    expectViewParity("fig1");
}

TEST(ReportParityTest, Figure2BusCyclesPerScheme)
{
    EXPECT_EQ(busCyclesAveragedTable(state().reloaded).toString(),
              busCyclesAveragedTable(state().grid.schemes).toString());
    expectViewParity("fig2");
}

TEST(ReportParityTest, Figure3BusCyclesPerTrace)
{
    EXPECT_EQ(busCyclesPerTraceTable(state().reloaded).toString(),
              busCyclesPerTraceTable(state().grid.schemes).toString());
    expectViewParity("fig3");
}

TEST(ReportParityTest, Figure4BreakdownFractions)
{
    expectViewParity("fig4");
}

TEST(ReportParityTest, Figure5CyclesPerTransaction)
{
    expectViewParity("fig5");
}

TEST(ReportParityTest, Section51TransactionOverhead)
{
    expectViewParity("sec5.1");
}

TEST(ReportParityTest, Section6ScalableDirectories)
{
    expectViewParity("sec6");
}

} // namespace
} // namespace dirsim
