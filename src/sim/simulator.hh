/**
 * @file
 * The trace-driven simulation driver.
 *
 * Feeds a multiprocessor address trace through a coherence protocol
 * exactly as Section 4 of the paper describes: infinite caches, one
 * cache per *process* (sharing between processes, not processors),
 * globally-first references to a block tracked and excluded from the
 * cost metrics, and instructions generating no coherence traffic.
 */

#ifndef DIRSIM_SIM_SIMULATOR_HH
#define DIRSIM_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "bus/cost_model.hh"
#include "cache/finite_cache.hh"
#include "common/histogram.hh"
#include "obs/phase.hh"
#include "protocols/events.hh"
#include "protocols/protocol.hh"
#include "protocols/registry.hh"
#include "trace/trace.hh"

namespace dirsim
{

/** How trace records map onto caches. */
enum class SharingModel
{
    /** One cache per process id (the paper's choice). */
    ByProcess,
    /** One cache per CPU (the paper's cross-check; similar results
     *  because process migration is rare). */
    ByProcessor,
};

/** Simulation parameters. */
struct SimConfig
{
    unsigned blockBytes = defaultBlockBytes;
    SharingModel sharing = SharingModel::ByProcess;
    /**
     * When non-zero, run CoherenceProtocol::checkAllInvariants()
     * every this-many data references (slow; used by tests).
     */
    std::uint64_t invariantCheckPeriod = 0;
    /**
     * Measurement warm-up: events, operations, and histogram samples
     * accumulated during the first this-many references are discarded
     * from the results (coherence state is still built up). The paper
     * measures whole traces; warm-up exists to study how much of a
     * short trace's cost is cold sharing (see bench/ext_warmup).
     */
    std::uint64_t warmupRefs = 0;
    /**
     * When set, build per-process FiniteCaches of this geometry
     * instead of the paper's infinite caches: replacement misses and
     * eviction write-backs then appear in the results (the geometry's
     * blockBytes must equal the simulation blockBytes). Honored by
     * the scheme-building simulateTrace overloads; the overload
     * taking an already-built protocol rejects the combination unless
     * the protocol itself runs finite caches.
     */
    std::optional<FiniteCacheConfig> finiteCache;

    /**
     * When set, the protocol reports every data reference to this
     * sink (CoherenceProtocol::attachTracer): dataRef() always, full
     * transition events at the sink's sampling period. Observation
     * only — results are bit-identical with or without a sink. Not
     * serialized into manifests; the caller owns the sink's lifetime
     * (it must outlive the simulation call).
     */
    ProtocolTraceSink *traceSink = nullptr;

    /**
     * Apply the DIRSIM_BLOCK_BYTES / DIRSIM_WARMUP_REFS /
     * DIRSIM_SHARING ("process" or "processor") environment
     * overrides, if set — the SimConfig counterpart of
     * SuiteParams::fromEnvironment().
     */
    static SimConfig fromEnvironment();
};

/** Everything a single (scheme, trace) simulation produces. */
struct SimResult
{
    std::string scheme;
    std::string traceName;
    unsigned numCaches = 0;
    std::uint64_t totalRefs = 0;

    EventCounts events;
    OpCounts ops;
    /** Figure 1 histogram: other holders on writes to clean blocks. */
    Histogram cleanWriteHolders;
    /**
     * Where this cell's wall time went (obs/phase.hh): trace
     * reading/scanning, the warm-up window, the measured simulation
     * window, and result assembly. Timed only at phase boundaries —
     * a handful of clock reads per simulation, never per record.
     */
    PhaseBreakdown phases;

    /** Event frequencies as fractions of all references. */
    EventFreqs freqs() const { return EventFreqs::fromCounts(events); }

    /** Figure 1 summary for the cost models. */
    CleanWriteProfile profile() const
    {
        return CleanWriteProfile::fromHistogram(cleanWriteHolders);
    }

    /** Ops-based cost under a bus model (exact for every scheme). */
    CycleBreakdown cost(const BusCosts &costs,
                        const CostOptions &options = {}) const
    {
        return costFromOps(ops, totalRefs, costs, options);
    }
};

/**
 * Build the scheme from its structured spec with the cache count
 * implied by the trace and the sharing model (honoring
 * SimConfig::finiteCache), then simulate.
 *
 * One-line wrapper over the SimJob engine (sim/job.hh): the trace is
 * decoded (sim/decoded.hh) and the decoded stream simulated. New
 * code that wants the result cache or a trace file should build a
 * SimJob and call runJob(); a grid runs on ExperimentRunner.
 */
SimResult simulateTrace(const Trace &trace, const SchemeSpec &scheme,
                        const SimConfig &config = {});

/** Caches @p trace needs under @p sharing (distinct pids or CPUs). */
unsigned cachesNeeded(const Trace &trace, SharingModel sharing);

/**
 * The cache factory SimConfig::finiteCache implies: empty (infinite
 * caches) when unset, a validated FiniteCache factory when set.
 */
CacheFactory cacheFactoryFor(const SimConfig &config);

} // namespace dirsim

#endif // DIRSIM_SIM_SIMULATOR_HH
