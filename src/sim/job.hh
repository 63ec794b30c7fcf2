/**
 * @file
 * The composable simulation entry point.
 *
 * Every way of running a simulation — an in-memory Trace, a decoded
 * stream, a trace file; one scheme or a whole grid — is one shape
 * here: a SimJob (trace reference + scheme + SimConfig) expanded by
 * buildPlan() into a SimPlan of executable cells, each run by
 * runPlannedCell(). buildPlan() decodes every distinct trace once
 * (sim/decoded.hh), and every cell runs the one simulation loop,
 * simulateTrace(DecodedTrace, ...). The legacy entry points (the
 * scheme-building simulateTrace() overloads, runGrid(),
 * ExperimentRunner::run()/runFiles()) are thin wrappers over this
 * engine.
 *
 * The engine adds a content-addressed cell cache (CellCache): results
 * keyed by FNV-1a 64 over (trace checksum, canonical scheme name,
 * SimConfig, engine schema version). A warm cache replays a whole
 * grid with zero simulated references. The file-backed implementation
 * lives in obs/cell_cache.hh (DIRSIM_CACHE_DIR).
 */

#ifndef DIRSIM_SIM_JOB_HH
#define DIRSIM_SIM_JOB_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/decoded.hh"
#include "sim/simulator.hh"

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
        Memory,  ///< an in-memory Trace
        Decoded, ///< an already-decoded stream
        File,    ///< a trace file on disk
    };

    Kind kind = Kind::Memory;
    const Trace *memory = nullptr;
    const DecodedTrace *decoded = nullptr;
    std::string path;

    static TraceRef of(const Trace &trace);
    static TraceRef of(const DecodedTrace &decoded);
    static TraceRef file(std::string path);
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

/** The content-addressed key of one (trace, scheme, config) cell. */
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

/** One executable cell of a SimPlan. */
struct PlannedCell
{
    SchemeSpec scheme;
    SimConfig config;
    /** Shared decoded stream (plan-owned or caller-owned). */
    const DecodedTrace *stream = nullptr;
    /** Workload name. */
    std::string traceName;
    /** Records this cell will process. */
    std::uint64_t records = 0;
    std::uint64_t cacheKey = 0;
    bool cacheable = false;
};

/** A fully-resolved execution plan: cells plus shared streams. */
struct SimPlan
{
    std::vector<PlannedCell> cells;
    /** Streams decoded by buildPlan(), shared across its cells. */
    std::vector<std::unique_ptr<DecodedTrace>> streams;
    std::shared_ptr<CellCache> cache;

    /** Sum of every cell's record count. */
    std::uint64_t plannedRefs() const;
};

/** What executing one cell produced. */
struct CellOutcome
{
    SimResult result;
    /** True when the result came from the cache, not simulation. */
    bool cacheHit = false;
    /** Records actually simulated: 0 on a cache hit. */
    std::uint64_t simulatedRefs = 0;
    /** Records the cell covers, simulated or replayed. */
    std::uint64_t records = 0;
    double wallSeconds = 0.0;
};

/**
 * Expand jobs into an executable plan: decode each distinct trace
 * once (shared by every cell that references it) and compute cache
 * keys. Pure planning — no simulation.
 */
SimPlan buildPlan(const std::vector<SimJob> &jobs,
                  const JobOptions &options = {});

/**
 * Execute one cell of a plan: cache lookup, simulation, cache store.
 * Safe to call for different indices from concurrent workers.
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
