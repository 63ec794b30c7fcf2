/**
 * @file
 * The composable simulation entry point.
 *
 * Every way of running a simulation — an in-memory Trace, a decoded
 * stream, a trace file, a trace generated from a recipe; one scheme
 * or a whole grid — is one shape here: a SimJob (trace reference +
 * scheme + SimConfig) expanded by buildPlan() into a SimPlan of
 * executable cells, each run by runPlannedCell(). Each distinct
 * trace is decoded (sim/decoded.hh) at most once per geometry, and
 * every cell runs the one simulation loop,
 * simulateTrace(DecodedTrace, ...). buildPlan() decodes up front only
 * what the plan needs before any cell starts; every other source is
 * materialized by the first cell that misses. The legacy entry points
 * (the scheme-building simulateTrace() overloads, runGrid(),
 * ExperimentRunner::run()/runFiles()) are thin wrappers over this
 * engine.
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

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/decoded.hh"
#include "sim/simulator.hh"
#include "tracegen/generator.hh"

namespace dirsim
{

/**
 * A lightweight, non-owning reference to a simulation input. The
 * referenced Trace/DecodedTrace must outlive any plan built from it.
 */
struct TraceRef
{
    enum class Kind
    {
        Memory,    ///< an in-memory Trace
        Decoded,   ///< an already-decoded stream
        File,      ///< a trace file on disk
        Generated, ///< a trace generated on demand from a recipe
    };

    Kind kind = Kind::Memory;
    const Trace *memory = nullptr;
    const DecodedTrace *decoded = nullptr;
    std::string path;

    /** Generated: what to generate. Its checksum() keys the cell
     *  cache in place of a content checksum; its refs are the plan's
     *  record count until the trace exists. */
    TraceRecipe recipe;

    static TraceRef of(const Trace &trace);
    static TraceRef of(const DecodedTrace &decoded);
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

/** FNV-1a 64 over a decoded stream's name, geometry, and arrays.
 *  Decoding is deterministic, so a file and the in-memory trace read
 *  from it produce the same decoded checksum. */
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
    /** The stream: caller-owned or #owned. A lazy stream sets it
     *  under the source's latch. */
    const DecodedTrace *decoded = nullptr;
    std::unique_ptr<DecodedTrace> owned;
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
    /** Workload name; empty for a generated trace (the result
     *  carries it). */
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

    /** Sum of every cell's record count. */
    std::uint64_t plannedRefs() const;

    /** Sources whose content was read or generated so far, by
     *  buildPlan() or by cells. */
    std::size_t materializedSources() const;
};

/** What executing one cell produced. */
struct CellOutcome
{
    SimResult result;
    /** True when the result came from the cache, not simulation. */
    bool cacheHit = false;
    /** Records actually simulated: 0 on a cache hit. */
    std::uint64_t simulatedRefs = 0;
    /** Records the cell covers, simulated or replayed (a hit counts
     *  the result's totalRefs plus the warm-up). */
    std::uint64_t records = 0;
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
 * Execute one cell of a plan: cache lookup, simulation, cache store.
 * A hit never touches the trace. A miss on a stream that is not
 * decoded yet materializes it under its source's latch and charges
 * the wait to the result's Read phase; every other cell of the stream
 * then shares it. Safe to call for different indices from concurrent
 * workers.
 * @p sink, when set, observes this cell (as SimConfig::traceSink);
 * tracing disables the cache *lookup* — a replayed result cannot feed
 * a tracer — but the result is still stored.
 */
CellOutcome runPlannedCell(const SimPlan &plan, std::size_t index,
                           ProtocolTraceSink *sink = nullptr);

/** Plan and run a single job. */
CellOutcome runJob(const SimJob &job, const JobOptions &options = {});

/**
 * Plan and run a batch of jobs on @p workers threads (0 = the
 * DIRSIM_JOBS/hardware default; 1 = sequential on this thread).
 * Outcomes are returned in job order regardless of scheduling. For
 * scheme x trace grids with progress callbacks and timing telemetry,
 * use ExperimentRunner (a wrapper over the same engine).
 */
std::vector<CellOutcome> runJobs(const std::vector<SimJob> &jobs,
                                 const JobOptions &options = {},
                                 unsigned workers = 1);

} // namespace dirsim

#endif // DIRSIM_SIM_JOB_HH
