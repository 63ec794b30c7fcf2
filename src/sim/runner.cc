#include "sim/runner.hh"

#include <chrono>
#include <mutex>
#include <thread>

#include "common/env.hh"
#include "common/log.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/job.hh"

namespace dirsim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Opaque identity of the calling thread for timeline lanes. */
std::uint64_t
currentThreadTag()
{
    return static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

} // namespace

unsigned
RunnerConfig::defaultJobs()
{
    const unsigned jobs = envUnsigned("DIRSIM_JOBS", 0);
    return jobs > 0 ? jobs : ThreadPool::hardwareThreads();
}

RunnerConfig
RunnerConfig::fromEnvironment()
{
    RunnerConfig config;
    config.jobs = envUnsigned("DIRSIM_JOBS", 0);
    return config;
}

std::uint64_t
GridResult::totalRefs() const
{
    std::uint64_t refs = 0;
    for (const auto &cell : cells)
        refs += cell.refs;
    return refs;
}

double
GridResult::refsPerSecond() const
{
    return wallSeconds > 0.0
        ? static_cast<double>(totalRefs()) / wallSeconds
        : 0.0;
}

std::uint64_t
GridResult::cacheHits() const
{
    std::uint64_t hits = 0;
    for (const auto &cell : cells)
        hits += cell.cacheHit ? 1 : 0;
    return hits;
}

std::uint64_t
GridResult::cacheMisses() const
{
    return cells.size() - cacheHits();
}

std::uint64_t
GridResult::simulatedRefs() const
{
    std::uint64_t refs = 0;
    for (const auto &cell : cells)
        refs += cell.simulatedRefs;
    return refs;
}

ExperimentRunner::ExperimentRunner(RunnerConfig config_arg)
    : config(std::move(config_arg))
{}

unsigned
ExperimentRunner::resolvedJobs() const
{
    return config.jobs > 0 ? config.jobs : RunnerConfig::defaultJobs();
}

GridResult
ExperimentRunner::runGridCells(
    std::size_t num_schemes, std::size_t num_traces,
    std::uint64_t planned_refs,
    const std::function<SimResult(std::size_t, std::size_t,
                                  CellTiming &)> &cell) const
{
    const std::size_t num_cells = num_schemes * num_traces;
    GridResult grid;
    grid.cells.resize(num_cells);
    grid.schemes.resize(num_schemes);
    for (std::size_t s = 0; s < num_schemes; ++s)
        grid.schemes[s].perTrace.resize(num_traces);

    const auto start = Clock::now();
    grid.startNs = PhaseTimer::nowNs();
    logEvent(LogLevel::Debug, "runner.grid.start")
        .field("schemes", static_cast<std::uint64_t>(num_schemes))
        .field("traces", static_cast<std::uint64_t>(num_traces))
        .field("planned_refs", planned_refs);

    std::mutex progress_mutex;
    std::size_t completed = 0;
    std::uint64_t completed_refs = 0;
    std::size_t completed_hits = 0;
    const auto finishCell = [&](std::size_t index) {
        if (!config.onCellComplete)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        completed_refs += grid.cells[index].refs;
        completed_hits += grid.cells[index].cacheHit ? 1 : 0;
        GridProgress progress{++completed,         num_cells,
                              grid.cells[index],   secondsSince(start),
                              completed_refs,      planned_refs,
                              completed_hits};
        config.onCellComplete(progress);
    };

    const unsigned jobs = resolvedJobs();
    if (jobs == 1) {
        // Exact legacy path: every cell in grid order on this thread.
        for (std::size_t s = 0; s < num_schemes; ++s) {
            for (std::size_t t = 0; t < num_traces; ++t) {
                const std::size_t index = s * num_traces + t;
                grid.schemes[s].perTrace[t] =
                    cell(s, t, grid.cells[index]);
                finishCell(index);
            }
        }
    } else {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, num_cells)));
        for (std::size_t s = 0; s < num_schemes; ++s) {
            for (std::size_t t = 0; t < num_traces; ++t) {
                const std::size_t index = s * num_traces + t;
                pool.submit([&, s, t, index] {
                    grid.schemes[s].perTrace[t] =
                        cell(s, t, grid.cells[index]);
                    finishCell(index);
                });
            }
        }
        pool.wait();
    }

    grid.wallSeconds = secondsSince(start);
    grid.jobs = jobs;
    logEvent(LogLevel::Debug, "runner.grid.finished")
        .field("cells", static_cast<std::uint64_t>(num_cells))
        .field("jobs", jobs)
        .field("cache_hits",
               static_cast<std::uint64_t>(grid.cacheHits()))
        .field("wall_seconds", grid.wallSeconds);
    return grid;
}

GridResult
ExperimentRunner::runJobGrid(const std::vector<SimJob> &jobs,
                             const std::vector<SchemeSpec> &schemes,
                             std::size_t num_traces) const
{
    JobOptions options;
    options.cache = config.cellCache;

    // Planning is grid setup, charged as Read time. It decodes only
    // files and, with a cache, the streams content keys hash; every
    // other trace decodes in the first cell that needs it.
    const std::uint64_t plan_start = PhaseTimer::nowNs();
    const SimPlan plan = buildPlan(jobs, options);
    const std::uint64_t plan_ns = PhaseTimer::nowNs() - plan_start;

    GridResult grid = runGridCells(
        schemes.size(), num_traces, plan.plannedRefs(),
        [&](std::size_t s, std::size_t t, CellTiming &timing) {
            const std::size_t index = s * num_traces + t;
            const PlannedCell &planned = plan.cells[index];
            timing.startNs = PhaseTimer::nowNs();
            timing.threadTag = currentThreadTag();
            const auto start = Clock::now();
            timing.scheme = planned.scheme.name();
            timing.traceName = planned.traceName;

            std::unique_ptr<ProtocolTraceSink> sink;
            if (config.makeCellTraceSink)
                sink = config.makeCellTraceSink(timing.scheme,
                                                timing.traceName);
            const CellOutcome outcome =
                runPlannedCell(plan, index, sink.get());
            timing.refs = outcome.records;
            timing.wallSeconds = secondsSince(start);
            timing.cacheHit = outcome.cacheHit;
            timing.simulatedRefs = outcome.simulatedRefs;
            return outcome.result;
        });
    grid.setupPhases.add(Phase::Read, plan_ns);
    grid.cacheEnabled = config.cellCache != nullptr;
    for (std::size_t s = 0; s < schemes.size(); ++s)
        grid.schemes[s].scheme = schemes[s].name();
    return grid;
}

GridResult
ExperimentRunner::run(const std::vector<SchemeSpec> &schemes,
                      const std::vector<Trace> &traces,
                      const SimConfig &sim) const
{
    fatalIf(schemes.empty(), "experiment grid with no schemes");
    fatalIf(traces.empty(), "experiment grid with no traces");

    std::vector<SimJob> jobs;
    jobs.reserve(schemes.size() * traces.size());
    for (const SchemeSpec &scheme : schemes)
        for (const Trace &trace : traces)
            jobs.push_back({TraceRef::of(trace), scheme, sim});
    return runJobGrid(jobs, schemes, traces.size());
}

GridResult
ExperimentRunner::runFiles(const std::vector<SchemeSpec> &schemes,
                           const std::vector<std::string> &tracePaths,
                           const SimConfig &sim) const
{
    fatalIf(schemes.empty(), "experiment grid with no schemes");
    fatalIf(tracePaths.empty(), "experiment grid with no trace files");

    // One decode per file — the only read it ever gets. The plan
    // validates the file, sizes the coherence domain, and captures
    // the stream every cell replays.
    std::vector<SimJob> jobs;
    jobs.reserve(schemes.size() * tracePaths.size());
    for (const SchemeSpec &scheme : schemes)
        for (const std::string &path : tracePaths)
            jobs.push_back({TraceRef::file(path), scheme, sim});
    return runJobGrid(jobs, schemes, tracePaths.size());
}

GridResult
ExperimentRunner::runFiles(const std::vector<std::string> &schemes,
                           const std::vector<std::string> &tracePaths,
                           const SimConfig &sim) const
{
    std::vector<SchemeSpec> specs;
    specs.reserve(schemes.size());
    for (const auto &name : schemes)
        specs.push_back(parseScheme(name));
    return runFiles(specs, tracePaths, sim);
}

GridResult
ExperimentRunner::run(const std::vector<std::string> &schemes,
                      const std::vector<Trace> &traces,
                      const SimConfig &sim) const
{
    std::vector<SchemeSpec> specs;
    specs.reserve(schemes.size());
    for (const auto &name : schemes)
        specs.push_back(parseScheme(name));
    return run(specs, traces, sim);
}

} // namespace dirsim
