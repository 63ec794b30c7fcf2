/** @file Unit tests for obs/artifacts.hh. */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "obs/artifacts.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

std::vector<Trace>
smallTraces()
{
    return {generateTrace("pops", 20'000, 3),
            generateTrace("thor", 20'000, 4)};
}

const std::vector<SchemeSpec> kSchemes =
    parseSchemes({"Dir0B", "WTI"});

/** Run the small grid through a JSONL sink, return the text. */
std::string
runToJsonl()
{
    std::ostringstream os;
    JsonlSink sink(os);
    const ExperimentRunner runner;
    runWithArtifacts(runner, kSchemes, smallTraces(), SimConfig{},
                     sink);
    return os.str();
}

TEST(RunWithArtifactsTest, ArtifactsRoundTripThroughJsonl)
{
    std::ostringstream os;
    JsonlSink sink(os);
    const ExperimentRunner runner;
    const GridResult grid = runWithArtifacts(
        runner, kSchemes, smallTraces(), SimConfig{}, sink);

    std::istringstream in(os.str());
    const RunArtifacts loaded = loadArtifacts(in);

    ASSERT_TRUE(loaded.hasManifest);
    EXPECT_EQ(loaded.manifest.schemes,
              (std::vector<std::string>{"Dir0B", "WTI"}));
    EXPECT_EQ(loaded.manifest.jobs, grid.jobs);
    ASSERT_EQ(loaded.manifest.traces.size(), 2u);
    EXPECT_EQ(loaded.manifest.traces[0].source, "memory");
    EXPECT_FALSE(loaded.manifest.traces[0].hasChecksum);
    EXPECT_EQ(loaded.manifest.traces[0].records,
              smallTraces()[0].size());

    // One record per cell, scheme-major, matching the live grid.
    ASSERT_EQ(loaded.cells.size(), 4u);
    std::size_t cell = 0;
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        for (const SimResult &live : grid.schemes[s].perTrace) {
            const CellRecord &record = loaded.cells[cell++];
            EXPECT_EQ(record.scheme, live.scheme);
            EXPECT_EQ(record.trace, live.traceName);
            EXPECT_EQ(record.totalRefs, live.totalRefs);
            EXPECT_TRUE(record.events == live.events);
            EXPECT_TRUE(record.ops == live.ops);
        }
    }

    ASSERT_TRUE(loaded.hasMetrics);
    EXPECT_EQ(loaded.metrics.counter("sim.pops.Dir0B.refs"),
              loaded.cells[0].totalRefs);
    EXPECT_EQ(loaded.metrics.timer("runner.cell.wall_ms").count, 4u);
}

TEST(DiffArtifactsTest, IdenticalRunsDiffClean)
{
    const std::string text = runToJsonl();
    std::istringstream in_a(text), in_b(text);
    const RunArtifacts a = loadArtifacts(in_a);
    const RunArtifacts b = loadArtifacts(in_b);
    EXPECT_TRUE(diffArtifacts(a, b).empty());
}

TEST(DiffArtifactsTest, RepeatedRunsDiffClean)
{
    // Two *separate* executions of the same experiment: wall times
    // differ, deterministic metrics must not.
    std::istringstream in_a(runToJsonl()), in_b(runToJsonl());
    const RunArtifacts a = loadArtifacts(in_a);
    const RunArtifacts b = loadArtifacts(in_b);
    EXPECT_TRUE(diffArtifacts(a, b).empty());
}

TEST(DiffArtifactsTest, DetectsCounterPerturbation)
{
    std::istringstream in_a(runToJsonl()), in_b(runToJsonl());
    const RunArtifacts a = loadArtifacts(in_a);
    RunArtifacts b = loadArtifacts(in_b);
    b.cells[0].events.add(EventType::RdHit, 1);

    const auto deltas = diffArtifacts(a, b);
    ASSERT_FALSE(deltas.empty());
    bool saw_event = false;
    for (const auto &delta : deltas) {
        EXPECT_EQ(delta.cell, "Dir0B/pops");
        if (delta.metric == "events.rd_hit")
            saw_event = true;
    }
    EXPECT_TRUE(saw_event);
}

TEST(DiffArtifactsTest, DetectsMissingCell)
{
    std::istringstream in_a(runToJsonl()), in_b(runToJsonl());
    const RunArtifacts a = loadArtifacts(in_a);
    RunArtifacts b = loadArtifacts(in_b);
    b.cells.pop_back();

    const auto deltas = diffArtifacts(a, b);
    ASSERT_FALSE(deltas.empty());
    EXPECT_EQ(deltas.back().cell, "WTI/thor");
    EXPECT_EQ(deltas.back().metric, "present");
}

TEST(GridMetricsTest, NamesFollowTheDocumentedScheme)
{
    const ExperimentRunner runner;
    const GridResult grid = runner.run(kSchemes, smallTraces());
    const MetricRegistry metrics = gridMetrics(grid);

    EXPECT_GT(metrics.counter("sim.pops.Dir0B.refs"), 0u);
    EXPECT_GT(metrics.counter("sim.thor.WTI.refs"), 0u);
    EXPECT_GT(metrics.counter("sim.pops.Dir0B.events.read"), 0u);
    EXPECT_EQ(metrics.timer("runner.cell.wall_ms").count, 4u);
    EXPECT_EQ(metrics.timer("runner.cell.phase.simulate_ns").count,
              4u);
    EXPECT_DOUBLE_EQ(metrics.gauge("runner.grid.cells"), 4.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("runner.grid.jobs"),
                     static_cast<double>(grid.jobs));
    EXPECT_GT(metrics.gauge("runner.grid.refs_per_second"), 0.0);
}

TEST(GridMetricsTest, DottedTraceNamesAreEscapedIntoOneSegment)
{
    // Regression: a trace named like a file ("app.bin") used to
    // split the "sim.<trace>.<scheme>" namespace at its '.' and
    // collide with genuinely nested names.
    Trace trace = generateTrace("pops", 15'000, 3);
    trace.setName("app.bin");
    RunnerConfig sequential;
    sequential.jobs = 1;
    const ExperimentRunner runner(sequential);
    const GridResult grid =
        runner.run(kSchemes, std::vector<Trace>{trace});
    const MetricRegistry metrics = gridMetrics(grid);

    EXPECT_GT(metrics.counter("sim.app_bin.Dir0B.refs"), 0u);
    EXPECT_FALSE(metrics.has("sim.app.bin.Dir0B.refs"));
}

TEST(RunWithArtifactsTest, ExtraMetricsLandInTheMetricsRecord)
{
    std::ostringstream os;
    JsonlSink sink(os);
    const ExperimentRunner runner;
    runWithArtifacts(runner, kSchemes, smallTraces(), SimConfig{},
                     sink, [](MetricRegistry &metrics) {
                         metrics.add("trace.dist.test.samples", 41);
                     });
    std::istringstream in(os.str());
    const RunArtifacts artifacts = loadArtifacts(in);
    ASSERT_TRUE(artifacts.hasMetrics);
    EXPECT_EQ(artifacts.metrics.counter("trace.dist.test.samples"),
              41u);
    // The grid's own metrics are still there alongside.
    EXPECT_GT(artifacts.metrics.counter("sim.pops.Dir0B.refs"), 0u);
}

TEST(LoadArtifactsTest, MalformedLineReportsItsNumber)
{
    std::istringstream in("{\"kind\":\"future-thing\",\"x\":1}\n"
                          "this is not json\n");
    try {
        loadArtifacts(in);
        FAIL() << "expected UsageError";
    } catch (const UsageError &error) {
        EXPECT_NE(std::string(error.what()).find("2"),
                  std::string::npos)
            << error.what();
    }
}

TEST(LoadArtifactsTest, UnknownKindsAreSkipped)
{
    std::string text = runToJsonl();
    text.insert(0, "{\"kind\":\"future-thing\",\"x\":1}\n");
    std::istringstream in(text);
    const RunArtifacts loaded = loadArtifacts(in);
    EXPECT_TRUE(loaded.hasManifest);
    EXPECT_EQ(loaded.cells.size(), 4u);
}

TEST(LoadArtifactsTest, EmptyInputThrows)
{
    std::istringstream in("\n\n");
    EXPECT_THROW(loadArtifacts(in), UsageError);
}

TEST(LoadArtifactsTest, MissingFileThrows)
{
    EXPECT_THROW(loadArtifacts("/nonexistent/results.jsonl"),
                 UsageError);
}

} // namespace
} // namespace dirsim
