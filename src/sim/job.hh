/**
 * @file
 * The composable simulation entry point and its one cell executor.
 *
 * Every way of running a simulation — an in-memory Trace, a trace
 * file, a trace generated from a recipe; one scheme or a whole
 * grid — is one shape here: a SimJob (trace reference + scheme +
 * SimConfig) expanded by buildPlan() into a SimPlan of
 * executable cells, which runPlan() dispatches. Each distinct trace
 * is decoded (sim/decoded.hh) at most once per geometry, and every
 * cell runs the one simulation loop, simulateTrace(DecodedTrace,
 * ...). buildPlan() decodes up front only what the plan needs before
 * any cell starts; every other source is materialized by the first
 * cell that misses.
 *
 * runPlan() is the only code that dispatches cells: runJob(),
 * ExperimentRunner (sim/runner.hh) and runSweep() (sweep/run.hh) all
 * plan and then call it, so job-count resolution, the worker pool,
 * progress, per-cell tracing and the stop gate live in one place.
 *
 * The engine adds a cell cache (CellCache): results keyed by FNV-1a
 * 64 over (trace identity, canonical scheme name, SimConfig, engine
 * schema version). A trace's identity is its decoded content's
 * checksum, or, for a generated trace, its recipe. A warm cache
 * replays a whole grid with zero simulated references, and a
 * generated trace whose cells all hit is never generated. The
 * file-backed implementation lives in obs/cell_cache.hh
 * (DIRSIM_CACHE_DIR).
 */

#ifndef DIRSIM_SIM_JOB_HH
#define DIRSIM_SIM_JOB_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/decoded.hh"
#include "sim/simulator.hh"
#include "tracegen/generator.hh"

namespace dirsim
{

/**
 * A lightweight, non-owning reference to a simulation input. The
 * referenced Trace must outlive any plan built from it.
 */
struct TraceRef
{
    enum class Kind
    {
        Memory,    ///< an in-memory Trace
        File,      ///< a trace file on disk
        Generated, ///< a trace generated on demand from a recipe
    };

    Kind kind = Kind::Memory;
    const Trace *memory = nullptr;
    std::string path;

    /** Generated: what to generate. Its checksum() keys the cell
     *  cache in place of a content checksum; its refs are the plan's
     *  record count until the trace exists. */
    TraceRecipe recipe;

    static TraceRef of(const Trace &trace);
    static TraceRef file(std::string path);
    static TraceRef generated(TraceRecipe recipe);
};

/** One simulation request: what to run, under which scheme, how. */
struct SimJob
{
    TraceRef trace;
    SchemeSpec scheme;
    SimConfig config;
};

/**
 * A content-addressed store of finished cell results.
 *
 * Keys are cellCacheKey() values; a key fully determines the
 * SimResult, so lookup() either misses or returns a result
 * bit-identical to re-simulating. Implementations must be safe for
 * concurrent lookup/store from grid workers. The file-backed
 * implementation is obs' FileCellCache (this library cannot depend
 * on obs, which links against it).
 */
class CellCache
{
  public:
    virtual ~CellCache() = default;

    /** @return true and fill @p out on a hit; false on a miss. */
    virtual bool lookup(std::uint64_t key, SimResult &out) = 0;

    /** Persist @p result under @p key. @p wall_seconds is the time
     *  the cell took to simulate (metadata only). */
    virtual void store(std::uint64_t key, const SimResult &result,
                       double wall_seconds) = 0;
};

/**
 * Version of the engine's observable semantics, folded into every
 * cache key. Bump on any change that alters what a (trace, scheme,
 * config) triple produces, so stale entries miss instead of lying.
 */
inline constexpr std::uint32_t engineSchemaVersion = 1;

/**
 * FNV-1a 64 over a decoded stream's name, geometry, records and
 * block table. The records are hashed as one record-aligned column
 * each: an op byte per record, then a u32 dense block per record,
 * then a u32 cache id per record, with instruction records as zeros,
 * so the key does not follow the in-memory layout. Decoding is
 * deterministic, so a file and the in-memory trace read from it
 * produce the same decoded checksum.
 */
std::uint64_t traceChecksumFnv64(const DecodedTrace &decoded);

/**
 * FNV-1a 64 over a file's raw bytes (the trace-format-v2 hash, also
 * used by RunManifest provenance).
 */
std::uint64_t fileChecksumFnv64(const std::string &path);

/** The key of one (trace, scheme, config) cell. @p trace_checksum is
 *  the trace's identity: traceChecksumFnv64() of its decoded stream,
 *  or a generated trace's recipe. */
std::uint64_t cellCacheKey(std::uint64_t trace_checksum,
                           const SchemeSpec &scheme,
                           const SimConfig &config);

/** Engine options shared by every cell of a plan. */
struct JobOptions
{
    /** Cell result cache; nullptr = always simulate. Wire obs'
     *  FileCellCache::fromEnvironment() here to honor
     *  DIRSIM_CACHE_DIR. */
    std::shared_ptr<CellCache> cache;
};

/**
 * One distinct input of a plan. Its content is read or generated at
 * most once: by buildPlan() when the plan needs it up front, else by
 * the first cell that needs it, under the source's latch.
 */
struct PlanSource
{
    TraceRef ref;
    /** Guards the members below and the source's lazy streams. */
    std::mutex latch;
    /** A generated trace, held until each of its streams is decoded. */
    std::unique_ptr<Trace> trace;
    /** Streams of this source not decoded yet. */
    std::size_t pendingStreams = 0;
    /** True once any of the source's content was read or generated. */
    bool materialized = false;
};

/** A source decoded under one (block size, sharing) geometry. */
struct PlanStream
{
    PlanSource *source = nullptr;
    unsigned blockBytes = 0;
    SharingModel sharing = SharingModel::ByProcess;
    /** The stream, once decoded. A lazy stream sets it under the
     *  source's latch. */
    std::unique_ptr<DecodedTrace> decoded;
    /** Decoded before any cell ran: cells read #decoded directly. */
    bool ready = false;
};

/** One executable cell of a SimPlan. */
struct PlannedCell
{
    SchemeSpec scheme;
    SimConfig config;
    /** Shared stream (plan-owned); may still be undecoded. */
    PlanStream *stream = nullptr;
    /** The name the cell's CellTiming and trace sink carry: the
     *  workload name, empty for a generated trace (the result
     *  carries it). A caller may relabel it before runPlan(). */
    std::string traceName;
    /** Records this cell will process: exact, except a generated
     *  trace's target length. */
    std::uint64_t records = 0;
    std::uint64_t cacheKey = 0;
    bool cacheable = false;
};

/** A fully-resolved execution plan: cells plus shared sources. */
struct SimPlan
{
    std::vector<PlannedCell> cells;
    std::vector<std::unique_ptr<PlanSource>> sources;
    /** Per-geometry streams of the sources, shared across cells. */
    std::vector<std::unique_ptr<PlanStream>> streams;
    std::shared_ptr<CellCache> cache;
    /** Time buildPlan() spent decoding and checksumming up front,
     *  before any cell ran: read work no cell's phases include. */
    std::uint64_t decodeNs = 0;

    /** Sum of every cell's record count. */
    std::uint64_t plannedRefs() const;

    /** Sources whose content was read or generated so far, by
     *  buildPlan() or by cells. */
    std::size_t materializedSources() const;
};

/** Execution metrics of one cell. */
struct CellTiming
{
    std::string scheme;
    /** The planned cell's traceName (a sweep's cell label). */
    std::string traceName;
    /** References the cell covers: the trace's records (incl.
     *  fetches) when simulated, the replayed result's references
     *  plus the warm-up on a cache hit. */
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
    /** Wall time since the first dispatch. */
    double elapsedSeconds = 0.0;
    /** References covered by the cells finished so far. */
    std::uint64_t completedRefs = 0;
    /** References the whole plan covers: exact, except that a cell
     *  whose trace was not generated at planning time counts at its
     *  target length until it finishes. */
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
 * plan order.
 */
using ProgressCallback = std::function<void(const GridProgress &)>;

/**
 * Builds one per-cell trace sink (obs/tracer.hh sessions), keyed by
 * (scheme, trace). Called once per cell on the worker thread that
 * runs it; the sink is attached via SimConfig::traceSink for that
 * cell only and destroyed (merging its data) when the cell finishes.
 * Returning nullptr leaves the cell untraced.
 */
using CellSinkFactory =
    std::function<std::unique_ptr<ProtocolTraceSink>(
        const std::string &scheme, const std::string &trace)>;

/** What executing one cell produced. */
struct CellOutcome
{
    SimResult result;
    CellTiming timing;
};

/** How runPlan() dispatches a plan's cells. */
struct ExecOptions
{
    /** Worker threads; 0 = resolveJobs(0), 1 = every cell in plan
     *  order on the calling thread. */
    unsigned jobs = 0;

    /** Optional per-cell completion hook (see ProgressCallback). */
    ProgressCallback onProgress;

    /** Optional per-cell tracer-session factory. Tracing disables the
     *  cache lookup — a replayed result cannot feed a tracer — but
     *  the result is still stored. */
    CellSinkFactory makeCellTraceSink;

    /**
     * Stop gate, checked before each dispatch: no further cell starts
     * once this many cells have *simulated* (cache hits are free; 0 =
     * unlimited) or once *cancel reads true. Cells in flight still
     * finish and are recorded, so up to jobs - 1 cells can land past
     * the budget.
     */
    std::uint64_t maxSimulatedCells = 0;
    const std::atomic<bool> *cancel = nullptr;
};

/** What runPlan() produced. */
struct PlanRun
{
    /** One entry per plan cell, in plan order; empty for a cell the
     *  stop gate kept from starting. */
    std::vector<std::optional<CellOutcome>> outcomes;
    /** The resolved job count. */
    unsigned jobs = 1;
    /** First dispatch on the PhaseTimer::nowNs() clock, and the wall
     *  time from there until the last cell finished. */
    std::uint64_t startNs = 0;
    double wallSeconds = 0.0;
};

/**
 * Expand jobs into an executable plan: one source per distinct trace,
 * one stream per (source, geometry), shared by every cell that
 * references it, and the cells' cache keys. Pure planning — no
 * simulation. It decodes a stream up front only when the plan needs
 * its content: every file stream (a file's record count is known
 * once read) and, with a cache attached, the stream whose content
 * checksum keys a memory source's cells. Generated sources are keyed
 * by recipe and never materialized here.
 */
SimPlan buildPlan(const std::vector<SimJob> &jobs,
                  const JobOptions &options = {});

/**
 * The job count a request resolves to: @p requested when non-zero,
 * else the DIRSIM_JOBS environment override when set and non-zero,
 * else the hardware thread count. The only reader of DIRSIM_JOBS.
 * @throws UsageError when DIRSIM_JOBS is malformed
 */
unsigned resolveJobs(unsigned requested);

/**
 * The order runPlan() hands @p plan's cells out at @p jobs workers:
 * plan order at one job; otherwise round-robin across sources, each
 * source's cells in plan order. A plan emitted trace-major (a sweep)
 * would otherwise start its first wave on one source, whose first
 * cell generates and decodes it while the rest wait on its latch.
 */
std::vector<std::size_t> dispatchOrder(const SimPlan &plan,
                                       unsigned jobs);

/**
 * Execute a plan's cells: the one cell dispatcher.
 *
 * At one job every cell runs in plan order on the calling thread;
 * otherwise on one ThreadPool of min(jobs, cells) workers, in
 * dispatchOrder(). Outcomes are in plan order either way. Each cell
 * is a cache lookup, else a simulation and a cache store. A hit never
 * touches the trace; a miss on a stream not decoded yet materializes
 * it under its source's latch and charges the wait to the result's
 * Read phase. Results do not depend on the job count.
 *
 * @throws the first cell's exception (e.g. UsageError), after the
 *         remaining dispatched cells finish
 */
PlanRun runPlan(const SimPlan &plan, const ExecOptions &options = {});

/** Plan and run a single job on the calling thread. The plan's
 *  up-front decode (SimPlan::decodeNs) is the cell's, so it is added
 *  to the result's Read phase. */
CellOutcome runJob(const SimJob &job, const JobOptions &options = {});

} // namespace dirsim

#endif // DIRSIM_SIM_JOB_HH
