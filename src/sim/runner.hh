/**
 * @file
 * The grid runner.
 *
 * Every (scheme, trace) cell of an experiment grid is independent —
 * an immutable Trace goes in, a fresh CoherenceProtocol and a
 * SimResult come out — so the grid is embarrassingly parallel.
 * ExperimentRunner expands the grid into scheme-major SimJobs, builds
 * one SimPlan (each distinct trace decoded and checksummed at most
 * once, by the plan or by the first cell that needs it) and hands it
 * to the executor, runPlan() (sim/job.hh). It keeps the result
 * ordering (scheme-major, traces in input order) and the results
 * themselves bit-identical to the sequential path, and reports
 * per-cell wall time and throughput. The plan gives grids the
 * content-addressed cell cache (RunnerConfig::cellCache) for free.
 */

#ifndef DIRSIM_SIM_RUNNER_HH
#define DIRSIM_SIM_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/job.hh"
#include "sim/simulator.hh"

namespace dirsim
{

/** ExperimentRunner knobs. */
struct RunnerConfig
{
    /**
     * Worker threads for the grid; 0 resolves through resolveJobs()
     * (DIRSIM_JOBS, else the hardware threads). 1 runs every cell in
     * grid order on the calling thread (no pool, no worker threads).
     */
    unsigned jobs = 0;

    /** Optional per-cell completion hook (see ProgressCallback). */
    ProgressCallback onCellComplete;

    /** Optional per-cell tracer-session factory (see
     *  CellSinkFactory; empty = no tracing). */
    CellSinkFactory makeCellTraceSink;

    /**
     * Content-addressed cell result cache (sim/job.hh); nullptr (the
     * default) simulates every cell. Wire obs'
     * FileCellCache::fromEnvironment() here to honor
     * DIRSIM_CACHE_DIR.
     */
    std::shared_ptr<CellCache> cellCache;
};

/** Everything one grid run produces. */
struct GridResult
{
    /** Per-scheme results, traces in input order. */
    std::vector<SchemeResults> schemes;
    /** Per-cell metrics in grid (scheme-major) order. */
    std::vector<CellTiming> cells;
    /** Wall time of the cells, from the first dispatch until the
     *  last cell finished (planning is in setupPhases). */
    double wallSeconds = 0.0;
    /** First dispatch on the PhaseTimer::nowNs() clock (timeline
     *  zero). */
    std::uint64_t startNs = 0;
    /** The resolved job count (the pool has min(jobs, cells)
     *  workers). */
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

    /** Aggregate throughput: totalRefs() — cache hits' replayed refs
     *  included — over the wall time. */
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
    explicit ExperimentRunner(RunnerConfig config = {});

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

    /** The job count a run() will use (config resolved). */
    unsigned resolvedJobs() const;

  private:
    /** Plan scheme-major @p jobs and run them on the executor. */
    GridResult runJobGrid(const std::vector<SimJob> &jobs,
                          const std::vector<SchemeSpec> &schemes,
                          std::size_t num_traces) const;

    RunnerConfig config;
};

} // namespace dirsim

#endif // DIRSIM_SIM_RUNNER_HH
