#include "sweep/run.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "common/log.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/phase.hh"

namespace dirsim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Manifest with per-instance provenance (generated instances are
 *  "memory" sources named by their sweep label; files carry the
 *  whole-file checksum). */
RunManifest
captureSweepManifest(const SweepPlan &plan,
                     const std::vector<std::unique_ptr<Trace>> &traces)
{
    // The manifest's flattened SimConfig fields describe one config;
    // a sweep has one per cell. Record the first cell's (the spec's
    // first axis values) — per-cell truth lives in the cell labels.
    RunManifest manifest = RunManifest::capture(
        plan.schemes, plan.cells.front().config(plan.spec));
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        const SweepTraceInstance &instance = plan.traces[t];
        TraceProvenance provenance;
        provenance.name = instance.label;
        if (instance.kind == SweepTraceEntry::Kind::File) {
            provenance.path = instance.path;
            provenance.source = "file";
            provenance.checksum = fileChecksumFnv64(instance.path);
            provenance.hasChecksum = true;
        } else {
            provenance.source = "memory";
            provenance.records = traces[t]->size();
            provenance.caches =
                cachesNeeded(*traces[t], plan.spec.sharing);
        }
        manifest.traces.push_back(std::move(provenance));
    }
    return manifest;
}

/** Opaque identity of the calling thread for timeline lanes
 *  (mirrors the runner's tag so traces compose). */
std::uint64_t
workerThreadTag()
{
    return static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

/** Mutable run state shared by the workers (mutex-guarded). */
struct RunState
{
    std::mutex mutex;
    std::vector<std::optional<CellOutcome>> outcomes;
    std::vector<std::uint64_t> cellStartNs;
    std::vector<std::uint64_t> cellThreadTags;
    std::size_t executedCells = 0;
    std::uint64_t simulatedCells = 0;
    std::uint64_t completedRefs = 0;
    std::uint64_t cacheHits = 0;
    bool stopped = false;
};

} // namespace

SweepOutcome
runSweep(const SweepPlan &plan, const SweepOptions &options)
{
    fatalIf(plan.cells.empty(), "sweep '", plan.spec.name,
            "' expands to no cells");

    const std::vector<std::unique_ptr<Trace>> traces =
        materializeSweepTraces(plan);

    std::vector<SimJob> jobs;
    jobs.reserve(plan.cells.size());
    for (const SweepCell &cell : plan.cells) {
        const SweepTraceInstance &instance =
            plan.traces[cell.traceIndex];
        SimJob job;
        job.trace = instance.kind == SweepTraceEntry::Kind::File
            ? TraceRef::file(instance.path)
            : TraceRef::of(*traces[cell.traceIndex]);
        job.scheme = cell.scheme;
        job.config = cell.config(plan.spec);
        jobs.push_back(std::move(job));
    }

    JobOptions engine;
    engine.cache = options.cache;
    const SimPlan sim_plan = buildPlan(jobs, engine);

    SweepOutcome outcome;
    outcome.manifest = captureSweepManifest(plan, traces);
    outcome.manifest.stampStart();

    const unsigned resolved_jobs = options.jobs != 0
        ? options.jobs
        : RunnerConfig::defaultJobs();
    outcome.manifest.jobs = resolved_jobs;

    const std::uint64_t planned_refs = sim_plan.plannedRefs();
    const Clock::time_point start = Clock::now();
    outcome.startNs = PhaseTimer::nowNs();

    RunState state;
    state.outcomes.resize(plan.cells.size());
    state.cellStartNs.resize(plan.cells.size(), 0);
    state.cellThreadTags.resize(plan.cells.size(), 0);

    const std::string run_label = options.runLabel.empty()
        ? plan.spec.name
        : options.runLabel;
    logEvent(LogLevel::Info, "sweep.run.start")
        .field("run", run_label)
        .field("name", plan.spec.name)
        .field("cells", static_cast<std::uint64_t>(plan.cells.size()))
        .field("jobs", resolved_jobs);

    // Pre-dispatch gate (under state.mutex): budget and cancellation
    // stop *dispatching*; in-flight cells always finish and are
    // recorded (and cached), which is what makes the cut resumable.
    const auto should_stop = [&]() {
        if (state.stopped)
            return true;
        if (options.cancel
            && options.cancel->load(std::memory_order_relaxed))
            state.stopped = true;
        else if (options.maxSimulatedCells != 0
                 && state.simulatedCells >= options.maxSimulatedCells)
            state.stopped = true;
        return state.stopped;
    };

    const auto record_outcome = [&](std::size_t index,
                                    std::uint64_t start_ns,
                                    CellOutcome cell_outcome) {
        logEvent(LogLevel::Debug, "sweep.cell.finished")
            .field("run", run_label)
            .field("cell", plan.cells[index].label)
            .field("scheme", plan.cells[index].scheme.name())
            .field("refs", cell_outcome.records)
            .field("cache_hit", cell_outcome.cacheHit)
            .field("wall_seconds", cell_outcome.wallSeconds);
        std::lock_guard<std::mutex> lock(state.mutex);
        state.cellStartNs[index] = start_ns;
        state.cellThreadTags[index] = workerThreadTag();
        ++state.executedCells;
        if (cell_outcome.cacheHit)
            ++state.cacheHits;
        else
            ++state.simulatedCells;
        state.completedRefs += cell_outcome.records;
        if (options.onProgress) {
            CellTiming timing;
            timing.scheme = plan.cells[index].scheme.name();
            timing.traceName = plan.cells[index].label;
            timing.refs = cell_outcome.records;
            timing.wallSeconds = cell_outcome.wallSeconds;
            timing.cacheHit = cell_outcome.cacheHit;
            timing.simulatedRefs = cell_outcome.simulatedRefs;
            GridProgress progress{state.executedCells,
                                  plan.cells.size(),
                                  timing,
                                  secondsSince(start),
                                  state.completedRefs,
                                  planned_refs,
                                  state.cacheHits};
            options.onProgress(progress);
        }
        state.outcomes[index] = std::move(cell_outcome);
    };

    if (resolved_jobs <= 1) {
        for (std::size_t i = 0; i < plan.cells.size(); ++i) {
            {
                std::lock_guard<std::mutex> lock(state.mutex);
                if (should_stop())
                    break;
            }
            const std::uint64_t start_ns = PhaseTimer::nowNs();
            record_outcome(i, start_ns, runPlannedCell(sim_plan, i));
        }
    } else {
        ThreadPool pool(resolved_jobs);
        for (std::size_t i = 0; i < plan.cells.size(); ++i) {
            pool.submit([&, i] {
                {
                    std::lock_guard<std::mutex> lock(state.mutex);
                    if (should_stop())
                        return;
                }
                const std::uint64_t start_ns = PhaseTimer::nowNs();
                record_outcome(i, start_ns,
                               runPlannedCell(sim_plan, i));
            });
        }
        pool.wait();
    }

    outcome.wallSeconds = secondsSince(start);
    outcome.manifest.stampFinish();
    outcome.completed = state.executedCells == plan.cells.size();

    std::uint64_t covered_refs = 0;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        if (!state.outcomes[i])
            continue;
        const CellOutcome &cell_outcome = *state.outcomes[i];
        CellTiming timing;
        timing.scheme = plan.cells[i].scheme.name();
        timing.traceName = plan.cells[i].label;
        timing.refs = cell_outcome.records;
        timing.wallSeconds = cell_outcome.wallSeconds;
        timing.cacheHit = cell_outcome.cacheHit;
        timing.simulatedRefs = cell_outcome.simulatedRefs;
        timing.startNs = state.cellStartNs[i];
        timing.threadTag = state.cellThreadTags[i];
        outcome.timings.push_back(timing);
        const SweepTraceInstance &instance =
            plan.traces[plan.cells[i].traceIndex];
        CellRecord record = CellRecord::fromCell(
            cell_outcome.result, timing,
            instance.kind == SweepTraceEntry::Kind::File
                ? instance.path
                : std::string());
        // The sweep label is the cell's identity: a plain trace name
        // would collide across block/geometry axis values.
        record.trace = plan.cells[i].label;
        outcome.records.push_back(std::move(record));
        outcome.cellIndices.push_back(i);

        if (cell_outcome.cacheHit)
            ++outcome.cacheHits;
        else
            ++outcome.cacheMisses;
        outcome.simulatedRefs += cell_outcome.simulatedRefs;
        covered_refs += cell_outcome.records;
        outcome.metrics.observe(
            "runner.cell.wall_ms",
            static_cast<std::uint64_t>(cell_outcome.wallSeconds
                                       * 1e3));
    }

    outcome.metrics.set("runner.grid.wall_seconds",
                        outcome.wallSeconds);
    outcome.metrics.set(
        "runner.grid.refs_per_second",
        outcome.wallSeconds > 0.0
            ? static_cast<double>(covered_refs) / outcome.wallSeconds
            : 0.0);
    outcome.metrics.set("runner.grid.jobs", resolved_jobs);
    outcome.metrics.set(
        "runner.grid.cells",
        static_cast<double>(outcome.records.size()));
    if (options.cache) {
        outcome.metrics.add("runner.cache.hits", outcome.cacheHits);
        outcome.metrics.add("runner.cache.misses",
                            outcome.cacheMisses);
        outcome.metrics.add("runner.grid.simulated_refs",
                            outcome.simulatedRefs);
    }
    outcome.metrics.add("sweep.cells.total", plan.cells.size());
    outcome.metrics.add("sweep.cells.executed",
                        outcome.records.size());
    outcome.metrics.add("sweep.cells.skipped",
                        plan.cells.size() - outcome.records.size());
    outcome.metrics.add("sweep.traces", plan.traces.size());
    logEvent(LogLevel::Info, "sweep.run.finished")
        .field("run", run_label)
        .field("completed", outcome.completed)
        .field("cells",
               static_cast<std::uint64_t>(outcome.records.size()))
        .field("cache_hits", outcome.cacheHits)
        .field("simulated_refs", outcome.simulatedRefs)
        .field("wall_seconds", outcome.wallSeconds);
    return outcome;
}

void
writeSweepArtifacts(const SweepOutcome &outcome, ResultsSink &sink)
{
    sink.writeManifest(outcome.manifest);
    for (const CellRecord &record : outcome.records)
        sink.writeCell(record);
    sink.writeMetrics(outcome.metrics);
    sink.finish();
}

} // namespace dirsim
