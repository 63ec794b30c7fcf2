#include "sim/runner.hh"

#include "common/log.hh"
#include "common/logging.hh"

namespace dirsim
{

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
    return resolveJobs(config.jobs);
}

GridResult
ExperimentRunner::runJobGrid(const std::vector<SimJob> &jobs,
                             const std::vector<SchemeSpec> &schemes,
                             std::size_t num_traces) const
{
    JobOptions options;
    options.cache = config.cellCache;
    // Planning decodes only files and, with a cache, the streams
    // content keys hash; every other trace decodes in the first cell
    // that needs it.
    const SimPlan plan = buildPlan(jobs, options);
    logEvent(LogLevel::Debug, "runner.grid.start")
        .field("schemes", static_cast<std::uint64_t>(schemes.size()))
        .field("traces", static_cast<std::uint64_t>(num_traces))
        .field("planned_refs", plan.plannedRefs());

    ExecOptions exec;
    exec.jobs = config.jobs;
    exec.onProgress = config.onCellComplete;
    exec.makeCellTraceSink = config.makeCellTraceSink;
    PlanRun run = runPlan(plan, exec);

    GridResult grid;
    grid.schemes.resize(schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s)
        grid.schemes[s].scheme = schemes[s].name();
    grid.cells.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        CellOutcome &outcome = *run.outcomes[i];
        grid.schemes[i / num_traces].perTrace.push_back(
            std::move(outcome.result));
        grid.cells.push_back(std::move(outcome.timing));
    }
    grid.wallSeconds = run.wallSeconds;
    grid.startNs = run.startNs;
    grid.jobs = run.jobs;
    grid.setupPhases.add(Phase::Read, plan.decodeNs);
    grid.cacheEnabled = config.cellCache != nullptr;
    logEvent(LogLevel::Debug, "runner.grid.finished")
        .field("cells", static_cast<std::uint64_t>(jobs.size()))
        .field("jobs", grid.jobs)
        .field("cache_hits",
               static_cast<std::uint64_t>(grid.cacheHits()))
        .field("wall_seconds", grid.wallSeconds);
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

} // namespace dirsim
