/**
 * @file
 * The executor's contract (sim/job.hh runPlan()), checked through
 * each of its callers — runPlan itself, ExperimentRunner and runSweep
 * — at one job and at four: results bit-identical to the
 * sequential run, a serialized once-per-cell progress callback that
 * ends at the planned reference count, cell errors surfacing as
 * UsageError, the sweep budget's bound on cells in flight, and a
 * first wave of workers that reads distinct sources.
 * Labelled `runner`, so the tsan preset runs it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/cell_cache.hh"
#include "obs/record.hh"
#include "sim/runner.hh"
#include "sweep/run.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

constexpr std::uint64_t kRefs = 12'000;

const std::vector<std::string> kSchemes = {"Dir0B", "WTI", "Dragon"};

const std::vector<Trace> &
traces()
{
    static const std::vector<Trace> suite = {
        generateTrace("pops", kRefs, 5), generateTrace("thor", kRefs, 6)};
    return suite;
}

/** The scheme-major jobs of the grid every caller runs. */
std::vector<SimJob>
gridJobs(const SimConfig &config)
{
    std::vector<SimJob> jobs;
    for (const SchemeSpec &scheme : parseSchemes(kSchemes))
        for (const Trace &trace : traces())
            jobs.push_back({TraceRef::of(trace), scheme, config});
    return jobs;
}

/** The same grid as a sweep: generated traces, scheme-major. */
SweepPlan
sweepPlan(std::uint64_t warmup)
{
    std::string schemes;
    for (const std::string &name : kSchemes)
        schemes += (schemes.empty() ? "\"" : ",\"") + name + "\"";
    return expandSweep(parseSweepSpec(
        R"({"name":"contract","schemes":[)" + schemes + "],"
        + R"("traces":[{"profile":"pops","refs":12000,"seed":5},)"
        + R"({"profile":"thor","refs":12000,"seed":6}],)"
        + R"("warmup_refs":)" + std::to_string(warmup) + "}"));
}

std::vector<CellRecord>
recordsOf(std::vector<std::optional<CellOutcome>> outcomes)
{
    std::vector<CellRecord> records;
    for (const std::optional<CellOutcome> &outcome : outcomes)
        records.push_back(
            CellRecord::fromCell(outcome->result, outcome->timing));
    return records;
}

/** One caller of the executor over the grid. */
struct Caller
{
    std::string name;
    std::function<std::vector<CellRecord>(
        unsigned jobs, std::uint64_t warmup,
        const ProgressCallback &progress)>
        run;
};

std::vector<Caller>
callers()
{
    std::vector<Caller> all;
    all.push_back({"runPlan",
                   [](unsigned jobs, std::uint64_t warmup,
                      const ProgressCallback &progress) {
                       SimConfig config;
                       config.warmupRefs = warmup;
                       const SimPlan plan = buildPlan(gridJobs(config));
                       ExecOptions options;
                       options.jobs = jobs;
                       options.onProgress = progress;
                       return recordsOf(runPlan(plan, options).outcomes);
                   }});
    all.push_back({"ExperimentRunner",
                   [](unsigned jobs, std::uint64_t warmup,
                      const ProgressCallback &progress) {
                       SimConfig config;
                       config.warmupRefs = warmup;
                       RunnerConfig runner;
                       runner.jobs = jobs;
                       runner.onCellComplete = progress;
                       const GridResult grid =
                           ExperimentRunner(runner).run(
                               parseSchemes(kSchemes), traces(), config);
                       std::vector<CellRecord> records;
                       for (std::size_t i = 0; i < grid.cells.size();
                            ++i) {
                           const std::size_t n = traces().size();
                           records.push_back(CellRecord::fromCell(
                               grid.schemes[i / n].perTrace[i % n],
                               grid.cells[i]));
                       }
                       return records;
                   }});
    all.push_back({"runSweep",
                   [](unsigned jobs, std::uint64_t warmup,
                      const ProgressCallback &progress) {
                       SweepOptions options;
                       options.jobs = jobs;
                       options.onProgress = progress;
                       return runSweep(sweepPlan(warmup), options)
                           .records;
                   }});
    return all;
}

void
expectSameCells(const std::vector<CellRecord> &a,
                const std::vector<CellRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].scheme, b[i].scheme);
        EXPECT_EQ(a[i].trace, b[i].trace);
        EXPECT_EQ(a[i].numCaches, b[i].numCaches);
        EXPECT_EQ(a[i].totalRefs, b[i].totalRefs);
        EXPECT_TRUE(a[i].events == b[i].events) << a[i].trace;
        EXPECT_TRUE(a[i].ops == b[i].ops) << a[i].trace;
        EXPECT_TRUE(a[i].cleanWriteHolders == b[i].cleanWriteHolders)
            << a[i].trace;
    }
}

TEST(ExecutorContractTest, ResultsAreBitIdenticalAcrossJobCounts)
{
    for (const Caller &caller : callers()) {
        SCOPED_TRACE(caller.name);
        const std::vector<CellRecord> sequential = caller.run(1, 0, {});
        ASSERT_EQ(sequential.size(), kSchemes.size() * traces().size());
        expectSameCells(caller.run(4, 0, {}), sequential);
    }
}

TEST(ExecutorContractTest, ProgressFiresOncePerCellAndNeverConcurrently)
{
    const std::size_t cells = kSchemes.size() * traces().size();
    for (const Caller &caller : callers()) {
        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(caller.name + " jobs=" + std::to_string(jobs));
            std::atomic<bool> inside{false};
            std::size_t calls = 0;
            std::uint64_t completed_refs = 0;
            std::uint64_t planned_refs = 0;
            caller.run(jobs, 0, [&](const GridProgress &progress) {
                EXPECT_FALSE(inside.exchange(true)) << "overlapping call";
                ++calls;
                EXPECT_EQ(progress.completedCells, calls);
                EXPECT_EQ(progress.totalCells, cells);
                EXPECT_GE(progress.completedRefs, completed_refs);
                completed_refs = progress.completedRefs;
                planned_refs = progress.plannedRefs;
                inside.store(false);
            });
            EXPECT_EQ(calls, cells);
            EXPECT_GT(planned_refs, 0u);
            EXPECT_EQ(completed_refs, planned_refs);
        }
    }
}

TEST(ExecutorContractTest, WarmupPastTheTraceSurfacesAsUsageError)
{
    for (const Caller &caller : callers()) {
        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(caller.name + " jobs=" + std::to_string(jobs));
            EXPECT_THROW(caller.run(jobs, 2 * kRefs, {}), UsageError);
        }
    }
}

TEST(ExecutorContractTest, SweepBudgetIsCheckedBeforeEachDispatch)
{
    // 16 cells; the gate admits a cell while fewer than B have
    // simulated, so at most jobs - 1 = 3 others can land past B.
    const SweepPlan plan = expandSweep(parseSweepSpec(
        R"({"name":"budget","schemes":["Dir0B","WTI","Dragon","Dir1NB"],)"
        R"("traces":[{"profile":"pops","refs":12000,"seed":5},)"
        R"({"profile":"thor","refs":12000,"seed":6}],)"
        R"("block_bytes":[16,32]})"));
    ASSERT_EQ(plan.cells.size(), 16u);
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "dirsim_executor"
        / "budget";
    std::filesystem::remove_all(dir);
    constexpr std::uint64_t budget = 2;
    SweepOptions options;
    options.jobs = 4;
    options.cache = std::make_shared<FileCellCache>(dir.string());
    options.maxSimulatedCells = budget;
    const SweepOutcome outcome = runSweep(plan, options);
    EXPECT_FALSE(outcome.completed);
    EXPECT_EQ(outcome.cacheHits, 0u);
    EXPECT_GE(outcome.cacheMisses, budget);
    EXPECT_LE(outcome.cacheMisses, budget + 3);
    EXPECT_EQ(outcome.records.size(), outcome.cacheMisses);
}

TEST(ExecutorContractTest, FirstWaveNamesDistinctSources)
{
    // Trace-major, as expandSweep() emits a sweep: five generated
    // sources (planning materializes none) x the three schemes.
    std::vector<SimJob> jobs;
    for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
        for (const SchemeSpec &scheme : parseSchemes(kSchemes)) {
            jobs.push_back({TraceRef::generated({"pops", 0, kRefs, seed}),
                            scheme, SimConfig{}});
        }
    }
    const SimPlan plan = buildPlan(jobs);
    ASSERT_EQ(plan.sources.size(), 5u);
    const auto source_of = [&plan](std::size_t cell) {
        return plan.cells[cell].stream->source;
    };

    std::vector<std::size_t> plan_order(plan.cells.size());
    std::iota(plan_order.begin(), plan_order.end(), std::size_t{0});
    EXPECT_EQ(dispatchOrder(plan, 1), plan_order);

    for (const unsigned workers : {2u, 4u, 8u}) {
        SCOPED_TRACE("jobs=" + std::to_string(workers));
        const std::vector<std::size_t> order =
            dispatchOrder(plan, workers);
        std::vector<std::size_t> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(sorted, plan_order);

        const std::size_t wave =
            std::min<std::size_t>(workers, plan.sources.size());
        std::set<const PlanSource *> first_wave;
        for (std::size_t k = 0; k < wave; ++k)
            first_wave.insert(source_of(order[k]));
        EXPECT_EQ(first_wave.size(), wave);

        // Each source's cells still go out in plan order.
        std::map<const PlanSource *, std::size_t> previous;
        for (const std::size_t cell : order) {
            const auto it = previous.find(source_of(cell));
            if (it != previous.end()) {
                EXPECT_LT(it->second, cell);
            }
            previous[source_of(cell)] = cell;
        }
    }
}

} // namespace
} // namespace dirsim
