/**
 * @file
 * google-benchmark microbenchmarks: trace-generation and simulation
 * throughput (references per second) for every scheme, the trace
 * decode pass (BM_Decode), single-cell simulation with and without
 * the decode (BM_Simulate vs BM_SimulateDecoded), plus the parallel
 * experiment runner at several job counts (BM_RunGrid/1 is the
 * sequential baseline; the default-jobs run should approach a
 * jobs-fold speedup on an idle multi-core host).
 *
 * The machine-size axis gets BM_ScalingGrid: the 8-scheme scaling
 * grid (sim/scaling.hh) over one N-cache trace at N in
 * {64, 256, 1024}, exercising the flat SharerStore arenas that keep
 * large-N throughput off the per-block-allocation cliff.
 *
 * After the microbenchmarks, two timed grids are recorded as
 * structured artifacts (manifest + per-cell throughput metrics,
 * obs/sink.hh) to BENCH_8.json — the repo's perf trajectory file —
 * compared record-by-record by bench/compare_bench.py:
 *
 *  - the paper grid, along with a cold-then-warm cell-cache grid
 *    replay (perf.cache.*, zero simulated references asserted);
 *
 *  - the N=1024 scaling grid (the BENCH_7 workload: 8 schemes x
 *    600k refs).
 *
 * DIRSIM_BENCH_JSON overrides the destination; set it to an empty
 * string to skip the grids entirely.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include <benchmark/benchmark.h>

#include "dirsim/dirsim.hh"

namespace
{

using namespace dirsim;

const Trace &
benchTrace()
{
    static const Trace trace = generateTrace("pops", 200'000, 12345);
    return trace;
}

void
BM_GenerateTrace(benchmark::State &state)
{
    const auto refs = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const Trace trace = generateTrace("pops", refs, seed++);
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_GenerateTrace)->Arg(50'000)->Arg(200'000);

void
BM_Simulate(benchmark::State &state, const char *scheme)
{
    const Trace &trace = benchTrace();
    const SchemeSpec spec = parseScheme(scheme);
    for (auto _ : state) {
        const SimResult result = simulateTrace(trace, spec);
        benchmark::DoNotOptimize(result.totalRefs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK_CAPTURE(BM_Simulate, dir1nb, "Dir1NB");
BENCHMARK_CAPTURE(BM_Simulate, wti, "WTI");
BENCHMARK_CAPTURE(BM_Simulate, dir0b, "Dir0B");
BENCHMARK_CAPTURE(BM_Simulate, dragon, "Dragon");
BENCHMARK_CAPTURE(BM_Simulate, dirnnb, "DirNNB");
BENCHMARK_CAPTURE(BM_Simulate, berkeley, "Berkeley");
BENCHMARK_CAPTURE(BM_Simulate, dir2b, "Dir2B");

void
BM_Decode(benchmark::State &state)
{
    const Trace &trace = benchTrace();
    for (auto _ : state) {
        const DecodedTrace decoded = decodeTrace(
            trace, defaultBlockBytes, SharingModel::ByProcess);
        benchmark::DoNotOptimize(decoded.numRecords());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_Decode);

void
BM_SimulateDecoded(benchmark::State &state, const char *scheme)
{
    const Trace &trace = benchTrace();
    const DecodedTrace decoded = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    const SchemeSpec spec = parseScheme(scheme);
    for (auto _ : state) {
        const SimResult result = simulateTrace(decoded, spec);
        benchmark::DoNotOptimize(result.totalRefs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK_CAPTURE(BM_SimulateDecoded, dir1nb, "Dir1NB");
BENCHMARK_CAPTURE(BM_SimulateDecoded, dir0b, "Dir0B");
BENCHMARK_CAPTURE(BM_SimulateDecoded, dragon, "Dragon");
BENCHMARK_CAPTURE(BM_SimulateDecoded, dirnnb, "DirNNB");

const std::vector<Trace> &
gridSuite()
{
    static const std::vector<Trace> traces = [] {
        SuiteParams params;
        params.refsPerTrace = 150'000;
        params.seed = 88;
        return standardSuite(params);
    }();
    return traces;
}

/** The paper grid through the runner. */
void
BM_RunGrid(benchmark::State &state)
{
    // Arg 0 = default concurrency (DIRSIM_JOBS / hardware threads).
    RunnerConfig config;
    config.jobs = static_cast<unsigned>(state.range(0));
    const ExperimentRunner runner(config);
    const std::vector<SchemeSpec> schemes = parseSchemes(paperSchemes());
    std::uint64_t grid_refs = 0;
    for (auto _ : state) {
        const GridResult grid = runner.run(schemes, gridSuite());
        grid_refs = grid.totalRefs();
        benchmark::DoNotOptimize(grid.schemes.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(grid_refs));
}

BENCHMARK(BM_RunGrid)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * The N=1024 workload of the committed BENCH_7 grid: one scale-N
 * trace (600k refs, default scaling seed), run below against
 * scalingSchemes() and recorded as the trajectory file's second
 * metrics record.
 */
const std::vector<Trace> &
scalingGridSuite()
{
    static const std::vector<Trace> traces = [] {
        std::vector<Trace> out;
        out.push_back(scalingTrace(1024, ScalingParams{}));
        return out;
    }();
    return traces;
}

/**
 * The 8-scheme scaling grid over one N-cache trace (Arg = N). The
 * large-N points stress the sharer storage itself: with per-block
 * heap sharer sets the N=1024 grid ran ~22x slower per reference
 * than the paper grid; the flat SharerStore arena is what this
 * benchmark watches.
 */
void
BM_ScalingGrid(benchmark::State &state)
{
    const auto n = static_cast<unsigned>(state.range(0));
    ScalingParams params;
    std::vector<Trace> traces;
    traces.push_back(scalingTrace(n, params));
    RunnerConfig config;
    config.jobs = 1;
    const ExperimentRunner runner(config);
    std::uint64_t grid_refs = 0;
    for (auto _ : state) {
        const GridResult grid =
            runner.run(scalingSchemes(), traces);
        grid_refs = grid.totalRefs();
        benchmark::DoNotOptimize(grid.schemes.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(grid_refs));
}
BENCHMARK(BM_ScalingGrid)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_TraceStats(benchmark::State &state)
{
    const Trace &trace = benchTrace();
    for (auto _ : state) {
        const TraceStats stats = computeTraceStats(trace);
        benchmark::DoNotOptimize(stats.refs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_TraceStats);

double
secondsOf(const std::function<void()> &work)
{
    const auto start = std::chrono::steady_clock::now();
    work();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Cold-then-warm cell-cache replay of the paper grid. The warm run
 * must simulate nothing; its wall time and hit counts land in the
 * trajectory file as perf.cache.*.
 */
void
measureWarmCacheReplay(MetricRegistry &metrics)
{
    const auto cache_dir = std::filesystem::temp_directory_path()
        / "dirsim_perf_cell_cache";
    std::filesystem::remove_all(cache_dir);
    RunnerConfig config;
    config.cellCache =
        std::make_shared<FileCellCache>(cache_dir.string());
    const ExperimentRunner runner(config);
    const std::vector<SchemeSpec> schemes = parseSchemes(paperSchemes());

    GridResult cold, warm;
    const double cold_seconds = secondsOf([&] {
        cold = runner.run(schemes, gridSuite());
    });
    const double warm_seconds = secondsOf([&] {
        warm = runner.run(schemes, gridSuite());
    });
    fatalIf(warm.cacheHits() != warm.cells.size()
                || warm.simulatedRefs() != 0,
            "warm cell-cache grid simulated ", warm.simulatedRefs(),
            " refs across ", warm.cacheMisses(),
            " misses; expected a full replay");

    metrics.set("perf.cache.cold_wall_seconds", cold_seconds);
    metrics.set("perf.cache.warm_wall_seconds", warm_seconds);
    metrics.add("perf.cache.warm_hits", warm.cacheHits());
    metrics.add("perf.cache.warm_simulated_refs",
                warm.simulatedRefs());
    std::cerr << "warm cell cache: " << warm.cacheHits() << "/"
              << warm.cells.size() << " cells replayed in "
              << warm_seconds << "s (cold " << cold_seconds
              << "s)\n";
    std::filesystem::remove_all(cache_dir);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const char *override_path = std::getenv("DIRSIM_BENCH_JSON");
    const std::string out =
        override_path ? override_path : "BENCH_8.json";
    if (out.empty())
        return 0;
    try {
        // One stream, two artifact records (paper grid, then the
        // N=1024 scaling grid) — compare_bench.py diffs them in file
        // order against the committed baseline.
        std::ofstream stream(out, std::ios::trunc);
        fatalIf(!stream, "cannot write ", out);

        MetricRegistry engine_metrics;
        measureWarmCacheReplay(engine_metrics);
        {
            JsonlSink sink(stream);
            const ExperimentRunner runner;
            runWithArtifacts(
                runner, parseSchemes(paperSchemes()), gridSuite(), {},
                sink,
                [&engine_metrics](MetricRegistry &metrics) {
                    metrics.merge(engine_metrics);
                });
        }

        {
            JsonlSink sink(stream);
            const ExperimentRunner runner;
            runWithArtifacts(runner, scalingSchemes(),
                             scalingGridSuite(), {}, sink);
        }
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    std::cerr << "perf trajectory written to " << out << '\n';
    return 0;
}
