#include "common/bench_common.hh"

#include <cstdlib>
#include <iostream>
#include <memory>

namespace dirsim::bench
{

namespace
{

/** --jsonl destination; empty = no artifacts. */
std::string jsonl_path;
/** --chrome destination; empty = no timeline export. */
std::string chrome_path;
/** Only the first grid of the process is recorded. */
bool artifacts_written = false;

/**
 * Bench mains have no shared top-level catch, so configuration
 * errors (bad DIRSIM_* values, an unwritable --chrome path) must be
 * turned into a clean `error:` exit here rather than escaping as an
 * uncaught exception.
 */
[[noreturn]] void
usageExit(const SimulationError &error)
{
    std::cerr << "error: " << error.what() << '\n';
    std::exit(1);
}

} // namespace

std::vector<std::string>
initArtifacts(int argc, char **argv, const std::string &operands)
{
    std::vector<std::string> positional;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--jsonl") {
                fatalIf(i + 1 >= argc, "--jsonl requires a path");
                jsonl_path = argv[++i];
            } else if (arg == "--chrome") {
                fatalIf(i + 1 >= argc, "--chrome requires a path");
                chrome_path = argv[++i];
            } else if (!operands.empty() && !arg.starts_with("-")) {
                positional.push_back(arg);
            } else {
                fatal("unknown argument '", arg,
                      "' (supported: --jsonl <path>, "
                      "--chrome <path>)");
            }
        }
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        std::cerr << "usage: " << argv[0]
                  << (operands.empty() ? "" : " " + operands)
                  << " [--jsonl <path>] [--chrome <path>]\n";
        std::exit(1);
    }
    return positional;
}

void
banner(const std::string &artifact, const std::string &caption)
{
    const std::string rule(58, '=');
    std::cout << rule << '\n';
    std::cout << "Reproduction of " << artifact
              << " -- Agarwal et al.,\n";
    std::cout << "\"An Evaluation of Directory Schemes for Cache "
                 "Coherence\"\n";
    std::cout << caption << '\n';
    SuiteParams params;
    try {
        params = SuiteParams::fromEnvironment();
    } catch (const SimulationError &error) {
        usageExit(error);
    }
    std::cout << "suite: pops/thor/pero, "
              << TextTable::grouped(params.refsPerTrace)
              << " refs each (DIRSIM_SUITE_REFS overrides), seed "
              << params.seed << '\n';
    std::cout << rule << "\n\n";
}

const std::vector<Trace> &
suite()
{
    static const std::vector<Trace> traces = standardSuite();
    return traces;
}

namespace
{

/** Run a grid on the parallel runner and report its throughput. */
std::vector<SchemeResults>
timedGridOrThrow(const std::vector<std::string> &schemes)
{
    // jobs = 0: DIRSIM_JOBS, else every hardware thread.
    RunnerConfig config;
    // Content-addressed cell cache (DIRSIM_CACHE_DIR): reruns of
    // identical (trace, scheme, config) cells replay stored results.
    const auto cache = FileCellCache::fromEnvironment();
    config.cellCache = cache;

    // Opt-in observers: a live stderr HUD (DIRSIM_PROGRESS=1) and
    // the coherence event tracer (DIRSIM_TRACE_SAMPLE=<period>).
    ProgressHud hud;
    if (ProgressHud::enabledFromEnvironment())
        config.onCellComplete = hud.callback();
    const TracerConfig tracer_config = TracerConfig::fromEnvironment();
    std::unique_ptr<EventTracer> tracer;
    if (tracer_config.enabled()) {
        tracer = std::make_unique<EventTracer>(tracer_config);
        config.makeCellTraceSink =
            [&t = *tracer](const std::string &scheme,
                           const std::string &trace) {
                return t.session(scheme, trace);
            };
    }

    const ExperimentRunner runner(std::move(config));
    GridResult grid;
    if (!jsonl_path.empty() && !artifacts_written) {
        artifacts_written = true;
        ExtraMetricsFn extra;
        if (tracer)
            extra = [&tracer](MetricRegistry &metrics) {
                tracer->exportMetrics(metrics);
            };
        JsonlSink sink(jsonl_path);
        grid = runWithArtifacts(runner, parseSchemes(schemes), suite(),
                                {}, sink, extra);
        hud.finish();
        logEvent(LogLevel::Info, "bench.artifacts.written")
            .field("path", jsonl_path);
    } else {
        grid = runner.run(parseSchemes(schemes), suite());
        hud.finish();
    }
    if (tracer)
        logEvent(LogLevel::Info, "bench.tracer.sampled")
            .field("events", tracer->emittedEvents())
            .field("period", tracer_config.samplePeriod)
            .field("ring", static_cast<std::uint64_t>(
                               tracer_config.ringCapacity))
            .field("dropped", tracer->droppedEvents());
    if (!chrome_path.empty()) {
        writeChromeTraceFile(chrome_path, grid, tracer.get());
        logEvent(LogLevel::Info, "bench.chrome.written")
            .field("path", chrome_path);
        chrome_path.clear(); // first grid only, like --jsonl
    }
    logEvent(LogLevel::Info, "bench.grid")
        .field("schemes", static_cast<std::uint64_t>(schemes.size()))
        .field("traces", static_cast<std::uint64_t>(suite().size()))
        .field("jobs", grid.jobs)
        .field("wall_seconds", grid.wallSeconds)
        .field("refs_per_second", grid.refsPerSecond());
    if (cache)
        logEvent(LogLevel::Info, "bench.cell_cache")
            .field("hits", grid.cacheHits())
            .field("misses", grid.cacheMisses())
            .field("dir", cache->directory());
    return std::move(grid.schemes);
}

std::vector<SchemeResults>
timedGrid(const std::vector<std::string> &schemes)
{
    try {
        return timedGridOrThrow(schemes);
    } catch (const UsageError &error) {
        usageExit(error);
    }
}

} // namespace

const std::vector<SchemeResults> &
paperGrid()
{
    static const std::vector<SchemeResults> grid =
        timedGrid(paperSchemes());
    return grid;
}

std::vector<SchemeResults>
gridFor(const std::vector<std::string> &schemes)
{
    return timedGrid(schemes);
}

} // namespace dirsim::bench
