/** @file Unit tests for sim/runner.hh (the parallel grid engine). */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "sim/runner.hh"
#include "sim/suite.hh"
#include "sweep/run.hh"

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

/** Every field a simulation produces, compared exactly. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.traceName, b.traceName);
    EXPECT_EQ(a.numCaches, b.numCaches);
    EXPECT_EQ(a.totalRefs, b.totalRefs);
    EXPECT_TRUE(a.events == b.events) << a.scheme << "/" << a.traceName;
    EXPECT_TRUE(a.ops == b.ops) << a.scheme << "/" << a.traceName;
    EXPECT_TRUE(a.cleanWriteHolders == b.cleanWriteHolders)
        << a.scheme << "/" << a.traceName;
}

/** A thread-safe in-memory CellCache. */
class MemoryCellCache : public CellCache
{
  public:
    bool lookup(std::uint64_t key, SimResult &out) override
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = entries.find(key);
        if (it == entries.end())
            return false;
        out = it->second;
        return true;
    }

    void store(std::uint64_t key, const SimResult &result,
               double) override
    {
        std::lock_guard<std::mutex> lock(mutex);
        entries[key] = result;
    }

  private:
    std::mutex mutex;
    std::map<std::uint64_t, SimResult> entries;
};

TEST(RunnerTest, ParallelGridIsBitIdenticalToSequential)
{
    const auto traces = smallSuite();

    // The sequential reference: plain per-cell simulation, no runner.
    const std::vector<SchemeSpec> schemes = parseSchemes(paperSchemes());
    std::vector<std::vector<SimResult>> reference;
    for (const SchemeSpec &scheme : schemes) {
        std::vector<SimResult> row;
        for (const auto &trace : traces)
            row.push_back(simulateTrace(trace, scheme));
        reference.push_back(std::move(row));
    }

    for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
        RunnerConfig config;
        config.jobs = jobs;
        const ExperimentRunner runner(config);
        const GridResult grid = runner.run(schemes, traces);
        EXPECT_EQ(grid.jobs, jobs);
        ASSERT_EQ(grid.schemes.size(), paperSchemes().size());
        for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
            EXPECT_EQ(grid.schemes[s].scheme, paperSchemes()[s]);
            ASSERT_EQ(grid.schemes[s].perTrace.size(), traces.size());
            for (std::size_t t = 0; t < traces.size(); ++t) {
                expectIdentical(grid.schemes[s].perTrace[t],
                                reference[s][t]);
            }
        }
    }
}

TEST(RunnerTest, CellTimingsCoverTheGridInOrder)
{
    const auto traces = smallSuite();
    RunnerConfig config;
    config.jobs = 2;
    const GridResult grid =
        ExperimentRunner(config).run(parseSchemes({"Dir0B", "Dragon"}),
                                     traces);
    ASSERT_EQ(grid.cells.size(), 2 * traces.size());
    for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const CellTiming &cell = grid.cells[s * traces.size() + t];
            EXPECT_EQ(cell.scheme, s == 0 ? "Dir0B" : "Dragon");
            EXPECT_EQ(cell.traceName, traces[t].name());
            EXPECT_EQ(cell.refs, traces[t].size());
            EXPECT_GE(cell.wallSeconds, 0.0);
        }
    }
    EXPECT_EQ(grid.totalRefs(),
              2 * (traces[0].size() + traces[1].size()
                   + traces[2].size()));
    EXPECT_GT(grid.wallSeconds, 0.0);
    EXPECT_GT(grid.refsPerSecond(), 0.0);
}

TEST(RunnerTest, ProgressCallbackFiresOncePerCell)
{
    const auto traces = smallSuite();
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> max_completed{0};
    RunnerConfig config;
    config.jobs = 3;
    config.onCellComplete = [&](const GridProgress &progress) {
        calls.fetch_add(1);
        EXPECT_EQ(progress.totalCells, 2 * traces.size());
        EXPECT_GE(progress.completedCells, 1u);
        EXPECT_LE(progress.completedCells, progress.totalCells);
        EXPECT_FALSE(progress.cell.scheme.empty());
        max_completed.store(
            std::max(max_completed.load(), progress.completedCells));
    };
    ExperimentRunner(config).run(parseSchemes({"Dir0B", "WTI"}), traces);
    EXPECT_EQ(calls.load(), 2 * traces.size());
    EXPECT_EQ(max_completed.load(), 2 * traces.size());
}

TEST(RunnerTest, ProgressCarriesThroughputTelemetry)
{
    const auto traces = smallSuite();
    std::uint64_t trace_refs = 0;
    for (const Trace &trace : traces)
        trace_refs += trace.size();
    // plannedRefs is exact: the plan counts records while decoding —
    // records × schemes, not an estimate.
    const std::uint64_t planned = 2 * trace_refs;

    {
        std::mutex mutex;
        std::uint64_t last_completed_refs = 0;
        std::size_t calls = 0;
        bool final_seen = false;
        RunnerConfig config;
        config.jobs = 2;
        config.onCellComplete = [&](const GridProgress &progress) {
            std::lock_guard<std::mutex> lock(mutex);
            ++calls;
            EXPECT_EQ(progress.plannedRefs, planned);
            // completedRefs accumulates monotonically (calls are
            // serialized) and always includes the finished cell.
            EXPECT_GT(progress.completedRefs, last_completed_refs);
            EXPECT_GE(progress.completedRefs, progress.cell.refs);
            EXPECT_LE(progress.completedRefs, planned);
            last_completed_refs = progress.completedRefs;
            EXPECT_GE(progress.elapsedSeconds, 0.0);
            if (progress.elapsedSeconds > 0.0) {
                EXPECT_GT(progress.refsPerSecond(), 0.0);
            }
            if (progress.completedCells == progress.totalCells) {
                final_seen = true;
                // Everything planned was simulated; nothing remains.
                EXPECT_EQ(progress.completedRefs, planned);
                EXPECT_DOUBLE_EQ(progress.etaSeconds(), 0.0);
            } else if (progress.refsPerSecond() > 0.0) {
                EXPECT_GT(progress.etaSeconds(), 0.0);
            }
        };
        ExperimentRunner(config).run(parseSchemes({"Dir0B", "WTI"}),
                                     traces);
        EXPECT_EQ(calls, 2 * traces.size());
        EXPECT_TRUE(final_seen);
    }
}

TEST(RunnerTest, RunJobMatchesLegacyEntryPoints)
{
    const auto traces = smallSuite();
    const Trace &trace = traces[0];
    const SchemeSpec scheme = parseScheme("Dir4NB");
    const SimResult reference = simulateTrace(trace, scheme);

    // Memory job, default options.
    const CellOutcome memory = runJob({TraceRef::of(trace), scheme, {}});
    expectIdentical(memory.result, reference);
    EXPECT_FALSE(memory.timing.cacheHit);
    EXPECT_EQ(memory.timing.refs, trace.size());
    EXPECT_EQ(memory.timing.simulatedRefs, trace.size());

    // A plan over every paper scheme, parallel workers, job order.
    std::vector<SimJob> jobs;
    for (const std::string &name : paperSchemes())
        jobs.push_back({TraceRef::of(trace), parseScheme(name), {}});
    ExecOptions four_workers;
    four_workers.jobs = 4;
    const PlanRun run = runPlan(buildPlan(jobs), four_workers);
    ASSERT_EQ(run.outcomes.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        expectIdentical(run.outcomes[j]->result,
                        simulateTrace(trace, jobs[j].scheme));
    }
}

TEST(RunnerTest, UncachedGridDecodesInItsCells)
{
    const auto traces = smallSuite();
    const std::vector<SchemeSpec> schemes = {parseScheme("Dir0B"),
                                             parseScheme("WTI")};
    std::uint64_t trace_refs = 0;
    for (const Trace &trace : traces)
        trace_refs += trace.size();

    // Without a cache the plan reads no trace, yet its record counts
    // are exact: a memory trace's size is its decoded length.
    std::vector<SimJob> jobs;
    for (const SchemeSpec &scheme : schemes)
        for (const Trace &trace : traces)
            jobs.push_back({TraceRef::of(trace), scheme, {}});
    const SimPlan plan = buildPlan(jobs);
    EXPECT_EQ(plan.materializedSources(), 0u);
    EXPECT_EQ(plan.plannedRefs(), schemes.size() * trace_refs);
    ExecOptions every_cell_at_once;
    every_cell_at_once.jobs = static_cast<unsigned>(jobs.size());
    runPlan(plan, every_cell_at_once);
    EXPECT_EQ(plan.materializedSources(), traces.size());

    for (const unsigned workers : {1u, 4u}) {
        std::mutex mutex;
        std::vector<std::uint64_t> planned;
        std::uint64_t completed_refs = 0;
        RunnerConfig config;
        config.jobs = workers;
        config.onCellComplete = [&](const GridProgress &progress) {
            std::lock_guard<std::mutex> lock(mutex);
            planned.push_back(progress.plannedRefs);
            completed_refs = progress.completedRefs;
        };
        const GridResult grid =
            ExperimentRunner(config).run(schemes, traces);
        ASSERT_EQ(planned.size(), jobs.size());
        for (const std::uint64_t refs : planned)
            EXPECT_EQ(refs, schemes.size() * trace_refs) << workers;
        EXPECT_EQ(completed_refs, schemes.size() * trace_refs);
        EXPECT_EQ(grid.totalRefs(), schemes.size() * trace_refs);
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            for (std::size_t t = 0; t < traces.size(); ++t) {
                expectIdentical(grid.schemes[s].perTrace[t],
                                simulateTrace(traces[t], schemes[s]));
            }
        }
    }
}

/** Run every cell of @p plan at once, one worker per cell. */
std::vector<CellOutcome>
runAllAtOnce(const SimPlan &plan)
{
    ExecOptions options;
    options.jobs = static_cast<unsigned>(plan.cells.size());
    std::vector<CellOutcome> outcomes;
    for (std::optional<CellOutcome> &outcome :
         runPlan(plan, options).outcomes)
        outcomes.push_back(std::move(*outcome));
    return outcomes;
}

TEST(RunnerTest, GeneratedTraceMaterializesOnceAndNeverOnAHit)
{
    const TraceRecipe recipe{"pops", 0, 40'000, 11};
    const Trace trace = recipe.generate();
    SimConfig config;
    config.warmupRefs = 1'000;
    std::vector<SimJob> jobs;
    for (const std::string &name : paperSchemes())
        jobs.push_back({TraceRef::generated(recipe), parseScheme(name),
                        config});

    // Planning keys generated cells by recipe: nothing is generated,
    // and the record count is the target until the trace exists.
    JobOptions options;
    options.cache = std::make_shared<MemoryCellCache>();
    const SimPlan cold_plan = buildPlan(jobs, options);
    EXPECT_EQ(cold_plan.materializedSources(), 0u);
    EXPECT_EQ(cold_plan.plannedRefs(), jobs.size() * 40'000);
    EXPECT_EQ(cold_plan.cells[0].cacheKey,
              cellCacheKey(recipe.checksum(), jobs[0].scheme, config));

    // Every cell misses at once: one source serves them all.
    const std::vector<CellOutcome> cold = runAllAtOnce(cold_plan);
    EXPECT_EQ(cold_plan.materializedSources(), 1u);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_FALSE(cold[j].timing.cacheHit);
        EXPECT_EQ(cold[j].timing.refs, trace.size());
        expectIdentical(cold[j].result,
                        simulateTrace(trace, jobs[j].scheme, config));
    }

    // Warm: every cell hits and the trace is never generated; a hit
    // covers the result's refs plus the warm-up.
    const SimPlan warm_plan = buildPlan(jobs, options);
    const std::vector<CellOutcome> warm = runAllAtOnce(warm_plan);
    EXPECT_EQ(warm_plan.materializedSources(), 0u);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_TRUE(warm[j].timing.cacheHit);
        EXPECT_EQ(warm[j].timing.refs, trace.size());
        EXPECT_EQ(warm[j].timing.simulatedRefs, 0u);
        expectIdentical(warm[j].result, cold[j].result);
    }
}

TEST(RunnerTest, CellTimingsCarryTimelineCoordinates)
{
    const auto traces = smallSuite();
    RunnerConfig config;
    config.jobs = 1;
    const GridResult grid =
        ExperimentRunner(config).run({parseScheme("Dir0B")}, traces);
    EXPECT_GT(grid.startNs, 0u);
    for (const CellTiming &cell : grid.cells) {
        EXPECT_GE(cell.startNs, grid.startNs);
        // Sequential run: every cell on the calling thread's lane.
        EXPECT_EQ(cell.threadTag, grid.cells[0].threadTag);
    }
}

TEST(RunnerTest, CellErrorsPropagateFromWorkers)
{
    const auto traces = smallSuite();
    SimConfig sim;
    sim.warmupRefs = traces[0].size() + 1; // consumes every trace
    RunnerConfig config;
    config.jobs = 2;
    const ExperimentRunner runner(config);
    EXPECT_THROW(
        runner.run(parseSchemes({"Dir0B", "WTI"}), traces, sim),
        UsageError);
}

TEST(RunnerTest, EmptyInputsRejected)
{
    const auto traces = smallSuite();
    const ExperimentRunner runner;
    EXPECT_THROW(runner.run(std::vector<SchemeSpec>{}, traces),
                 UsageError);
    EXPECT_THROW(runner.run({parseScheme("Dir0B")}, {}), UsageError);
}

TEST(RunnerTest, JobsResolveFromEnvironment)
{
    // resolveJobs() is the one reader of DIRSIM_JOBS; runPlan, the
    // runner and the sweep all resolve a 0 job count through it.
    unsetenv("DIRSIM_JOBS");
    EXPECT_GE(resolveJobs(0), 1u);
    EXPECT_EQ(resolveJobs(5), 5u);

    setenv("DIRSIM_JOBS", "3", 1);
    EXPECT_EQ(resolveJobs(0), 3u);
    EXPECT_EQ(ExperimentRunner().resolvedJobs(), 3u);
    const auto traces = smallSuite();
    std::vector<SimJob> jobs;
    for (const char *name : {"Dir0B", "WTI"})
        for (const Trace &trace : traces)
            jobs.push_back({TraceRef::of(trace), parseScheme(name), {}});
    // runPlan at job count 0 runs on a pool of 3 workers, never the
    // caller.
    const PlanRun pooled = runPlan(buildPlan(jobs));
    EXPECT_EQ(pooled.jobs, 3u);
    std::set<std::uint64_t> lanes;
    for (const std::optional<CellOutcome> &outcome : pooled.outcomes)
        lanes.insert(outcome->timing.threadTag);
    EXPECT_LE(lanes.size(), 3u);
    EXPECT_EQ(lanes.count(runJob(jobs[0]).timing.threadTag), 0u);
    const SweepPlan sweep = expandSweep(parseSweepSpec(
        R"({"name":"jobs","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"pops","refs":2000,"seed":5}]})"));
    EXPECT_EQ(runSweep(sweep, {}).manifest.jobs, 3u);

    // A malformed override is rejected wherever it is resolved.
    setenv("DIRSIM_JOBS", "nope", 1);
    EXPECT_THROW(resolveJobs(0), UsageError);
    EXPECT_THROW(ExperimentRunner().resolvedJobs(), UsageError);
    EXPECT_THROW(runPlan(buildPlan(jobs)), UsageError);
    EXPECT_THROW(runSweep(sweep, {}), UsageError);
    // An explicit job count never reads the environment.
    EXPECT_EQ(resolveJobs(5), 5u);
    unsetenv("DIRSIM_JOBS");

    RunnerConfig fixed;
    fixed.jobs = 5;
    EXPECT_EQ(ExperimentRunner(fixed).resolvedJobs(), 5u);
}

TEST(RunnerTest, SimConfigFromEnvironment)
{
    unsetenv("DIRSIM_BLOCK_BYTES");
    unsetenv("DIRSIM_WARMUP_REFS");
    unsetenv("DIRSIM_SHARING");
    const SimConfig defaults = SimConfig::fromEnvironment();
    EXPECT_EQ(defaults.blockBytes, SimConfig{}.blockBytes);
    EXPECT_EQ(defaults.warmupRefs, 0u);
    EXPECT_EQ(defaults.sharing, SharingModel::ByProcess);

    setenv("DIRSIM_BLOCK_BYTES", "32", 1);
    setenv("DIRSIM_WARMUP_REFS", "1000", 1);
    setenv("DIRSIM_SHARING", "processor", 1);
    const SimConfig tuned = SimConfig::fromEnvironment();
    EXPECT_EQ(tuned.blockBytes, 32u);
    EXPECT_EQ(tuned.warmupRefs, 1000u);
    EXPECT_EQ(tuned.sharing, SharingModel::ByProcessor);

    setenv("DIRSIM_SHARING", "both", 1);
    EXPECT_THROW(SimConfig::fromEnvironment(), UsageError);
    unsetenv("DIRSIM_BLOCK_BYTES");
    unsetenv("DIRSIM_WARMUP_REFS");
    unsetenv("DIRSIM_SHARING");
}

} // namespace
} // namespace dirsim
