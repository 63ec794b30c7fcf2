/**
 * @file
 * Golden table-parity test: every paper table rendered from a
 * JSONL artifacts file must be byte-identical to the table rendered
 * from the live in-process grid. This is the contract that makes
 * `dirsim_report` a faithful re-renderer: CellRecord carries raw
 * integer counters, so nothing is lost (or rounded) on the way
 * through the file.
 */

#include <cstdio>
#include <sstream>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bus/bus_model.hh"
#include "obs/artifacts.hh"
#include "sim/report.hh"
#include "sim/suite.hh"
#include "trace/writer.hh"

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
        // The acceptance path: a runFiles grid (paper schemes x the
        // standard suite, streamed from trace files) whose JSONL
        // artifacts must re-render every table bit-identically.
        SuiteParams params;
        params.refsPerTrace = 25'000;
        params.seed = 13;
        std::vector<std::string> paths;
        for (const Trace &trace : standardSuite(params)) {
            // Each discovered test is its own process re-running
            // this fixture, so the scratch files must be unique per
            // process or parallel ctest invocations race on them.
            const std::string path = testing::TempDir() + "/parity_"
                + std::to_string(::getpid()) + "_" + trace.name()
                + ".trace";
            writeBinaryTraceFile(trace, path);
            paths.push_back(path);
        }

        std::ostringstream os;
        JsonlSink sink(os);
        const ExperimentRunner runner;
        ParityFixtureState built;
        built.grid = runFilesWithArtifacts(
            runner, parseSchemes(paperSchemes()), paths, SimConfig{},
            sink);
        for (const auto &path : paths)
            std::remove(path.c_str());

        std::istringstream in(os.str());
        built.reloaded = toSchemeResults(loadArtifacts(in).cells);
        return built;
    }();
    return fixture;
}

TEST(ReportParityTest, Table4EventFrequencies)
{
    EXPECT_EQ(
        eventFrequencyTable(state().reloaded, true).toString(),
        eventFrequencyTable(state().grid.schemes, true).toString());
    EXPECT_EQ(eventFrequencyTable(state().reloaded).toString(),
              eventFrequencyTable(state().grid.schemes).toString());
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
}

TEST(ReportParityTest, Figure2BusCyclesPerScheme)
{
    EXPECT_EQ(busCyclesTable(state().reloaded).toString(),
              busCyclesTable(state().grid.schemes).toString());
}

TEST(ReportParityTest, Figure3BusCyclesPerTrace)
{
    EXPECT_EQ(busCyclesTable(state().reloaded, true).toString(),
              busCyclesTable(state().grid.schemes, true).toString());
}

TEST(ReportParityTest, Figure1InvalidationHistogram)
{
    ASSERT_FALSE(state().reloaded.empty());
    EXPECT_EQ(
        invalidationHistogramTable(state().reloaded[0]).toString(),
        invalidationHistogramTable(state().grid.schemes[0])
            .toString());
}

} // namespace
} // namespace dirsim
