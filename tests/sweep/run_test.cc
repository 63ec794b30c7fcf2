/** @file Unit tests for sweep/run.hh: execution, resume, artifacts. */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "obs/artifacts.hh"
#include "obs/cell_cache.hh"
#include "sweep/run.hh"
#include "trace/writer.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

namespace fs = std::filesystem;

SweepPlan
smallPlan()
{
    return expandSweep(parseSweepSpec(
        R"({"name":"unit","schemes":["Dir0B","WTI"],)"
        R"("traces":[{"profile":"pops","refs":20000,"seed":5}],)"
        R"("block_bytes":[16,32]})"));
}

/** Three generated traces x two schemes, trace-major. */
SweepPlan
threeTracePlan()
{
    return expandSweep(parseSweepSpec(
        R"({"name":"lazy","schemes":["Dir0B","WTI"],)"
        R"("traces":[{"profile":"pops","refs":20000,"seed":5},)"
        R"({"profile":"thor","refs":20000,"seed":6},)"
        R"({"profile":"pero","refs":20000,"seed":7}]})"));
}

std::uint64_t
materializedTraces(const SweepOutcome &outcome)
{
    return outcome.metrics.counter("sweep.materialized_traces");
}

std::shared_ptr<FileCellCache>
freshCache(const char *name)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / "dirsim_sweep_run" / name;
    fs::remove_all(dir);
    return std::make_shared<FileCellCache>(dir.string());
}

TEST(RunSweepTest, ExecutesEveryCellInPlanOrder)
{
    const SweepPlan plan = smallPlan();
    const SweepOutcome outcome = runSweep(plan, {});
    EXPECT_TRUE(outcome.completed);
    ASSERT_EQ(outcome.records.size(), plan.cells.size());
    for (std::size_t i = 0; i < outcome.records.size(); ++i) {
        EXPECT_EQ(outcome.cellIndices[i], i);
        // Records are named by the unique cell label, so multi-axis
        // cells never collide in artifacts.
        EXPECT_EQ(outcome.records[i].trace, plan.cells[i].label);
        EXPECT_EQ(outcome.records[i].scheme,
                  plan.cells[i].scheme.name());
    }
    EXPECT_EQ(outcome.cacheHits, 0u);
    EXPECT_GT(outcome.simulatedRefs, 0u);
    // The established metric names, so dirsim_report renders sweep
    // metrics exactly like grid metrics.
    EXPECT_TRUE(outcome.metrics.has("runner.grid.cells"));
    EXPECT_TRUE(outcome.metrics.has("runner.grid.wall_seconds"));
}

TEST(RunSweepTest, ParallelMatchesSequential)
{
    const SweepPlan plan = smallPlan();
    SweepOptions sequential;
    sequential.jobs = 1;
    SweepOptions parallel;
    parallel.jobs = 4;
    const SweepOutcome a = runSweep(plan, sequential);
    const SweepOutcome b = runSweep(plan, parallel);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].trace, b.records[i].trace);
        EXPECT_TRUE(a.records[i].events == b.records[i].events)
            << a.records[i].trace;
    }
}

TEST(RunSweepTest, BudgetInterruptsAndCacheResumes)
{
    const SweepPlan plan = smallPlan();
    const auto cache = freshCache("resume");

    SweepOptions first;
    first.jobs = 1;
    first.cache = cache;
    first.maxSimulatedCells = 2;
    const SweepOutcome interrupted = runSweep(plan, first);
    EXPECT_FALSE(interrupted.completed);
    EXPECT_EQ(interrupted.records.size(), 2u);
    EXPECT_EQ(interrupted.cacheHits, 0u);

    // Re-running the same plan with the same cache resumes: the two
    // finished cells replay, only the remainder simulates.
    SweepOptions second;
    second.jobs = 1;
    second.cache = cache;
    const SweepOutcome resumed = runSweep(plan, second);
    EXPECT_TRUE(resumed.completed);
    ASSERT_EQ(resumed.records.size(), plan.cells.size());
    EXPECT_EQ(resumed.cacheHits, 2u);
    EXPECT_EQ(resumed.cacheMisses, plan.cells.size() - 2);

    // The resumed leg simulates strictly less than an uninterrupted
    // run, and its deterministic artifacts diff clean against one.
    const SweepOutcome scratch = runSweep(plan, {});
    EXPECT_LT(resumed.simulatedRefs, scratch.simulatedRefs);
    std::ostringstream resumed_text;
    std::ostringstream scratch_text;
    {
        JsonlSink resumed_sink(resumed_text);
        writeSweepArtifacts(resumed, resumed_sink);
        JsonlSink scratch_sink(scratch_text);
        writeSweepArtifacts(scratch, scratch_sink);
    }
    std::istringstream resumed_in(resumed_text.str());
    std::istringstream scratch_in(scratch_text.str());
    const RunArtifacts a = loadArtifacts(resumed_in);
    const RunArtifacts b = loadArtifacts(scratch_in);
    EXPECT_TRUE(diffArtifacts(a, b).empty());
}

TEST(RunSweepTest, WarmResumeMaterializesNoTrace)
{
    const SweepPlan plan = smallPlan();
    const auto cache = freshCache("warm");
    SweepOptions options;
    options.jobs = 1;
    options.cache = cache;
    const SweepOutcome cold = runSweep(plan, options);
    EXPECT_EQ(materializedTraces(cold), 1u);

    const SweepOutcome warm = runSweep(plan, options);
    EXPECT_TRUE(warm.completed);
    EXPECT_EQ(warm.cacheHits, plan.cells.size());
    EXPECT_EQ(warm.simulatedRefs, 0u);
    EXPECT_EQ(materializedTraces(warm), 0u);

    // The same cell records, and the same provenance, taken from the
    // hits instead of the generated trace.
    ASSERT_EQ(warm.records.size(), cold.records.size());
    for (std::size_t i = 0; i < cold.records.size(); ++i) {
        EXPECT_EQ(warm.records[i].trace, cold.records[i].trace);
        EXPECT_EQ(warm.records[i].totalRefs, cold.records[i].totalRefs);
        EXPECT_EQ(warm.records[i].numCaches, cold.records[i].numCaches);
        EXPECT_TRUE(warm.records[i].events == cold.records[i].events);
        EXPECT_TRUE(warm.records[i].ops == cold.records[i].ops);
        EXPECT_EQ(warm.timings[i].refs, cold.timings[i].refs);
    }
    const Trace trace = plan.traces[0].recipe().generate();
    ASSERT_EQ(cold.manifest.traces.size(), 1u);
    ASSERT_EQ(warm.manifest.traces.size(), 1u);
    for (const SweepOutcome *outcome : {&cold, &warm}) {
        const TraceProvenance &provenance = outcome->manifest.traces[0];
        EXPECT_EQ(provenance.name, "pops");
        EXPECT_EQ(provenance.source, "memory");
        EXPECT_EQ(provenance.records, trace.size());
        EXPECT_EQ(provenance.caches,
                  cachesNeeded(trace, plan.spec.sharing));
    }
}

TEST(RunSweepTest, PartialResumeMaterializesOnlyTracesWithMissingCells)
{
    const SweepPlan plan = threeTracePlan();
    const auto cache = freshCache("partial");

    // The budget runs pops' two cells and thor's first: thor and pero
    // each keep a missing cell.
    SweepOptions first;
    first.jobs = 1;
    first.cache = cache;
    first.maxSimulatedCells = 3;
    const SweepOutcome interrupted = runSweep(plan, first);
    EXPECT_EQ(interrupted.records.size(), 3u);
    EXPECT_EQ(materializedTraces(interrupted), 2u);

    SweepOptions second;
    second.jobs = 1;
    second.cache = cache;
    const SweepOutcome resumed = runSweep(plan, second);
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.cacheHits, 3u);
    EXPECT_EQ(materializedTraces(resumed), 2u);
    const SweepOutcome scratch = runSweep(plan, {});
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        EXPECT_EQ(resumed.manifest.traces[t].records,
                  scratch.manifest.traces[t].records);
        EXPECT_EQ(resumed.manifest.traces[t].caches,
                  scratch.manifest.traces[t].caches);
    }
}

TEST(RunSweepTest, BudgetCutGeneratesOnlyTheTracesItRuns)
{
    const SweepPlan plan = threeTracePlan();
    SweepOptions options;
    options.jobs = 1;
    options.cache = freshCache("budget");
    options.maxSimulatedCells = 2;
    const SweepOutcome outcome = runSweep(plan, options);
    EXPECT_FALSE(outcome.completed);
    ASSERT_EQ(outcome.records.size(), 2u);
    EXPECT_EQ(materializedTraces(outcome), 1u);

    // Only the executed trace knows its length; the never-generated
    // ones report none.
    ASSERT_EQ(outcome.manifest.traces.size(), 3u);
    EXPECT_GT(outcome.manifest.traces[0].records, 0u);
    EXPECT_GT(outcome.manifest.traces[0].caches, 0u);
    for (std::size_t t = 1; t < 3; ++t) {
        EXPECT_EQ(outcome.manifest.traces[t].records, 0u);
        EXPECT_EQ(outcome.manifest.traces[t].caches, 0u);
    }
}

TEST(RunSweepTest, ParallelMissesMaterializeATraceOnce)
{
    const SweepPlan plan = expandSweep(parseSweepSpec(
        R"({"name":"latch","schemes":["Dir0B","WTI","Dir1NB","Dragon"],)"
        R"("traces":[{"profile":"pops","refs":20000,"seed":5}]})"));
    SweepOptions parallel;
    parallel.jobs = 4;
    parallel.cache = freshCache("latch");
    const SweepOutcome outcome = runSweep(plan, parallel);
    EXPECT_EQ(outcome.cacheMisses, plan.cells.size());
    EXPECT_EQ(materializedTraces(outcome), 1u);

    SweepOptions sequential;
    sequential.jobs = 1;
    const SweepOutcome reference = runSweep(plan, sequential);
    ASSERT_EQ(outcome.records.size(), reference.records.size());
    for (std::size_t i = 0; i < reference.records.size(); ++i) {
        EXPECT_TRUE(outcome.records[i].events
                    == reference.records[i].events);
        EXPECT_TRUE(outcome.records[i].ops == reference.records[i].ops);
    }
}

TEST(RunSweepTest, CancelStopsDispatch)
{
    const SweepPlan plan = smallPlan();
    std::atomic<bool> cancel{true};
    SweepOptions options;
    options.jobs = 1;
    options.cancel = &cancel;
    const SweepOutcome outcome = runSweep(plan, options);
    EXPECT_FALSE(outcome.completed);
    EXPECT_TRUE(outcome.records.empty());
}

TEST(RunSweepTest, ProgressReportsEveryCell)
{
    const SweepPlan plan = smallPlan();
    for (const unsigned jobs : {1u, 4u}) {
        std::vector<CellTiming> seen;
        SweepOptions options;
        options.jobs = jobs;
        options.onProgress = [&](const GridProgress &progress) {
            seen.push_back(progress.cell);
            EXPECT_EQ(progress.totalCells, plan.cells.size());
        };
        const SweepOutcome outcome = runSweep(plan, options);
        ASSERT_EQ(seen.size(), plan.cells.size());
        if (jobs == 1) {
            for (std::size_t i = 0; i < seen.size(); ++i)
                EXPECT_EQ(seen[i].traceName, plan.cells[i].label);
        }
        // Each progress cell is its outcome's timing, timeline
        // coordinates included.
        for (const CellTiming &cell : seen) {
            std::size_t i = 0;
            while (i < outcome.timings.size()
                   && (outcome.timings[i].traceName != cell.traceName
                       || outcome.timings[i].scheme != cell.scheme))
                ++i;
            ASSERT_LT(i, outcome.timings.size()) << cell.traceName;
            const CellTiming &timing = outcome.timings[i];
            EXPECT_EQ(cell.scheme, timing.scheme);
            EXPECT_EQ(cell.refs, timing.refs);
            EXPECT_EQ(cell.wallSeconds, timing.wallSeconds);
            EXPECT_EQ(cell.startNs, timing.startNs);
            EXPECT_EQ(cell.threadTag, timing.threadTag);
            EXPECT_EQ(cell.cacheHit, timing.cacheHit);
            EXPECT_EQ(cell.simulatedRefs, timing.simulatedRefs);
            EXPECT_GE(cell.startNs, outcome.startNs);
            EXPECT_NE(cell.threadTag, 0u);
        }
    }
}

TEST(RunSweepTest, ArtifactsRoundTripThroughJsonl)
{
    const SweepPlan plan = smallPlan();
    const SweepOutcome outcome = runSweep(plan, {});
    std::ostringstream text;
    {
        JsonlSink sink(text);
        writeSweepArtifacts(outcome, sink);
    }
    std::istringstream in(text.str());
    const RunArtifacts loaded = loadArtifacts(in);
    ASSERT_TRUE(loaded.hasManifest);
    EXPECT_EQ(loaded.manifest.schemes,
              (std::vector<std::string>{"Dir0B", "WTI"}));
    ASSERT_EQ(loaded.cells.size(), plan.cells.size());
    EXPECT_EQ(loaded.cells[0].trace, plan.cells[0].label);
    ASSERT_TRUE(loaded.hasMetrics);
    EXPECT_TRUE(loaded.metrics.has("runner.grid.cells"));
}

TEST(RunSweepTest, ManifestCarriesFileProvenance)
{
    const std::vector<Trace> traces = {generateTrace("pops", 20'000, 3),
                                       generateTrace("thor", 20'000, 4)};
    std::vector<std::string> paths;
    std::string entries;
    for (const Trace &trace : traces) {
        // Unique per process: the sanitizer presets may run this test
        // at the same time.
        const std::string path = testing::TempDir() + "/sweep_file_"
            + std::to_string(::getpid()) + "_" + trace.name()
            + ".trace";
        writeBinaryTraceFile(trace, path);
        entries += (entries.empty() ? "" : ",") + std::string("{\"file\":\"")
            + path + "\"}";
        paths.push_back(path);
    }
    const SweepPlan plan = expandSweep(parseSweepSpec(
        R"({"name":"files","schemes":["Dir0B","WTI"],"traces":[)"
        + entries + "]}"));
    SweepOptions options;
    options.jobs = 1;
    std::ostringstream text;
    {
        JsonlSink sink(text);
        writeSweepArtifacts(runSweep(plan, options), sink);
    }

    std::istringstream in(text.str());
    const RunArtifacts loaded = loadArtifacts(in);
    ASSERT_TRUE(loaded.hasManifest);
    ASSERT_EQ(loaded.manifest.traces.size(), paths.size());
    for (std::size_t t = 0; t < paths.size(); ++t) {
        const TraceProvenance &prov = loaded.manifest.traces[t];
        EXPECT_EQ(prov.source, "file");
        EXPECT_EQ(prov.path, paths[t]);
        EXPECT_EQ(prov.records, traces[t].size());
        EXPECT_GT(prov.caches, 0u);
        ASSERT_TRUE(prov.hasChecksum);
        EXPECT_EQ(prov.checksum, fileChecksumFnv64(paths[t]));
    }
    // Each cell record points back at its trace file.
    ASSERT_EQ(loaded.cells.size(), plan.cells.size());
    for (std::size_t i = 0; i < plan.cells.size(); ++i)
        EXPECT_EQ(loaded.cells[i].tracePath,
                  paths[plan.cells[i].traceIndex]);

    for (const std::string &path : paths)
        std::remove(path.c_str());
}

} // namespace
} // namespace dirsim
