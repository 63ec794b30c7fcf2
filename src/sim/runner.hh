/**
 * @file
 * The parallel experiment engine.
 *
 * Every (scheme, trace) cell of an experiment grid is independent —
 * an immutable Trace goes in, a fresh CoherenceProtocol and a
 * SimResult come out — so the grid is embarrassingly parallel.
 * ExperimentRunner executes the cells on a ThreadPool while keeping
 * the result ordering (scheme-major, traces in input order) and the
 * results themselves bit-identical to the sequential path, and
 * additionally reports per-cell wall time and throughput.
 *
 * runGrid() (sim/experiment.hh) is a thin wrapper over this API with
 * environment-default concurrency; CLIs that want progress output or
 * timing metrics use the runner directly.
 *
 * The runner itself is a wrapper over the SimJob engine (sim/job.hh):
 * run()/runFiles() expand the grid into scheme-major SimJobs, build
 * one SimPlan (each distinct trace decoded and checksummed at most
 * once, by the plan or by the first cell that needs it), and execute
 * the planned cells on the pool. That routing is what gives grids the
 * content-addressed cell cache (RunnerConfig::cellCache) for free.
 */

#ifndef DIRSIM_SIM_RUNNER_HH
#define DIRSIM_SIM_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/job.hh"
#include "sim/simulator.hh"

namespace dirsim
{

/** Execution metrics of one (scheme, trace) cell. */
struct CellTiming
{
    std::string scheme;
    std::string traceName;
    /** References the cell simulated (trace records incl. fetches). */
    std::uint64_t refs = 0;
    double wallSeconds = 0.0;
    /**
     * Cell start on the PhaseTimer::nowNs() clock and an opaque tag
     * of the worker thread that ran it — enough to lay the grid out
     * on a per-worker timeline (obs/chrome_trace.hh).
     */
    std::uint64_t startNs = 0;
    std::uint64_t threadTag = 0;
    /** True when the result came from the cell cache. */
    bool cacheHit = false;
    /** Records actually simulated: 0 for cache hits. */
    std::uint64_t simulatedRefs = 0;

    /** Simulation throughput; 0 when the cell ran too fast to time. */
    double refsPerSecond() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(refs) / wallSeconds
            : 0.0;
    }
};

/** Snapshot handed to the progress callback after each cell. */
struct GridProgress
{
    /** Cells finished so far (including this one). */
    std::size_t completedCells = 0;
    std::size_t totalCells = 0;
    /** The cell that just finished. */
    const CellTiming &cell;
    /** Wall time since the grid started. */
    double elapsedSeconds = 0.0;
    /** References simulated by the cells finished so far. */
    std::uint64_t completedRefs = 0;
    /** References the whole grid will simulate, known up front:
     *  exact, except that a trace not generated yet counts at its
     *  target length. */
    std::uint64_t plannedRefs = 0;
    /** Cells served from the cell cache so far. */
    std::size_t cacheHits = 0;

    /** Aggregate throughput so far; 0 until measurable. */
    double refsPerSecond() const
    {
        return elapsedSeconds > 0.0
            ? static_cast<double>(completedRefs) / elapsedSeconds
            : 0.0;
    }

    /** Remaining-work estimate from the throughput so far; 0 when
     *  unknown or done. */
    double etaSeconds() const
    {
        const double rate = refsPerSecond();
        if (rate <= 0.0 || plannedRefs <= completedRefs)
            return 0.0;
        return static_cast<double>(plannedRefs - completedRefs)
            / rate;
    }
};

/**
 * Invoked after every finished cell. Calls are serialized (never
 * concurrent) but, with jobs > 1, arrive in completion order, not
 * grid order.
 */
using ProgressCallback = std::function<void(const GridProgress &)>;

/** ExperimentRunner knobs. */
struct RunnerConfig
{
    /**
     * Worker threads for the grid; 0 resolves to defaultJobs().
     * 1 runs the exact legacy sequential path on the calling thread
     * (no pool, no worker threads).
     */
    unsigned jobs = 0;

    /** Optional per-cell completion hook (see ProgressCallback). */
    ProgressCallback onCellComplete;

    /**
     * Builds one per-cell trace sink (obs/tracer.hh sessions), keyed
     * by (scheme, trace). Called once per cell on the worker thread
     * that runs it; the sink is attached via SimConfig::traceSink
     * for that cell only and destroyed (merging its data) when the
     * cell finishes. Returning nullptr leaves the cell untraced.
     */
    using CellSinkFactory =
        std::function<std::unique_ptr<ProtocolTraceSink>(
            const std::string &scheme, const std::string &trace)>;

    /** Optional per-cell tracer-session factory (empty = no tracing). */
    CellSinkFactory makeCellTraceSink;

    /**
     * Content-addressed cell result cache (sim/job.hh); nullptr (the
     * default) simulates every cell. Wire obs'
     * FileCellCache::fromEnvironment() here to honor
     * DIRSIM_CACHE_DIR.
     */
    std::shared_ptr<CellCache> cellCache;

    /**
     * The DIRSIM_JOBS environment override when set and non-zero,
     * otherwise the hardware thread count.
     */
    static unsigned defaultJobs();

    /** A config with jobs = the DIRSIM_JOBS override (or 0). The
     *  cell cache is not wired here — the sim layer cannot see obs'
     *  file cache. */
    static RunnerConfig fromEnvironment();
};

/** Everything one grid run produces. */
struct GridResult
{
    /** Per-scheme results, ordered exactly like sequential runGrid. */
    std::vector<SchemeResults> schemes;
    /** Per-cell metrics in grid (scheme-major) order. */
    std::vector<CellTiming> cells;
    /** End-to-end wall time of the grid. */
    double wallSeconds = 0.0;
    /** Grid start on the PhaseTimer::nowNs() clock (timeline zero). */
    std::uint64_t startNs = 0;
    /** Worker threads actually used. */
    unsigned jobs = 1;
    /**
     * Grid-level work outside any cell: the plan-time decodes (trace
     * files, and with a cell cache the content-keyed streams) and
     * checksums land here as Read time. A trace decoded by its first
     * cell is that cell's Read phase instead; per-cell phase splits
     * live in each SimResult::phases.
     */
    PhaseBreakdown setupPhases;
    /** True when the grid ran with a cell cache configured. */
    bool cacheEnabled = false;

    /** Aggregate throughput: all simulated refs over the wall time. */
    double refsPerSecond() const;
    /** Sum of every cell's covered references (cached or not). */
    std::uint64_t totalRefs() const;
    /** Cells served from the cell cache. */
    std::uint64_t cacheHits() const;
    /** Cells that actually simulated. */
    std::uint64_t cacheMisses() const;
    /** References actually simulated (0 for a fully warm cache). */
    std::uint64_t simulatedRefs() const;
};

/**
 * Executes scheme x trace grids on a worker pool.
 *
 * Determinism: each cell builds its own protocol from the scheme
 * spec and simulates a shared immutable trace, so results do not
 * depend on scheduling; the output ordering is fixed by the input
 * order. A run with any job count is bit-identical (events, ops,
 * histograms) to the sequential path (asserted by test).
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(
        RunnerConfig config = RunnerConfig::fromEnvironment());

    /**
     * Run every scheme on every trace.
     *
     * @param schemes scheme specs (see protocols/registry.hh)
     * @param traces input traces, shared read-only across workers
     * @param sim simulation parameters applied to every cell
     * @throws UsageError on empty inputs; any cell's exception is
     *         rethrown after the remaining cells finish
     */
    GridResult run(const std::vector<SchemeSpec> &schemes,
                   const std::vector<Trace> &traces,
                   const SimConfig &sim = {}) const;

    /** Legacy string-named convenience: parseScheme() each name,
     *  then run. Kept as a one-line wrapper (docs/api.md). */
    GridResult run(const std::vector<std::string> &schemes,
                   const std::vector<Trace> &traces,
                   const SimConfig &sim = {}) const;

    /**
     * Run every scheme on every trace *file*.
     *
     * Each file is read exactly once: the up-front decode pass
     * validates it, sizes the coherence domain, and captures the
     * compact record stream (about 9 bytes per record) every cell
     * then replays from memory. Results are bit-identical to loading
     * the files and calling run().
     *
     * @param schemes scheme specs (see protocols/registry.hh)
     * @param tracePaths trace files (".txt" = text, else binary)
     * @param sim simulation parameters applied to every cell
     */
    GridResult runFiles(const std::vector<SchemeSpec> &schemes,
                        const std::vector<std::string> &tracePaths,
                        const SimConfig &sim = {}) const;

    /** Legacy string-named convenience for runFiles(); kept as a
     *  one-line wrapper (docs/api.md). */
    GridResult runFiles(const std::vector<std::string> &schemes,
                        const std::vector<std::string> &tracePaths,
                        const SimConfig &sim = {}) const;

    /** The job count a run() will use (config resolved). */
    unsigned resolvedJobs() const;

  private:
    /** Expand scheme-major jobs through the SimJob engine
     *  (buildPlan + runPlannedCell per cell) and execute them on the
     *  grid scaffolding. */
    GridResult runJobGrid(const std::vector<SimJob> &jobs,
                          const std::vector<SchemeSpec> &schemes,
                          std::size_t num_traces) const;

    /** Shared grid scaffolding: cells(s, t) fills one SimResult.
     *  @param planned_refs total references the grid will simulate,
     *         reported through GridProgress */
    GridResult runGridCells(
        std::size_t num_schemes, std::size_t num_traces,
        std::uint64_t planned_refs,
        const std::function<SimResult(std::size_t, std::size_t,
                                      CellTiming &)> &cell) const;

    RunnerConfig config;
};

} // namespace dirsim

#endif // DIRSIM_SIM_RUNNER_HH
