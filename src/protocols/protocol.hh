/**
 * @file
 * The coherence-protocol engine interface.
 *
 * A protocol owns one infinite cache per process (the paper's model),
 * processes the data references of a trace in order, and tallies the
 * Table 4 events, the concrete bus operations, and the Figure 1
 * invalidation histogram.
 *
 * The engine keeps the one record of who holds each block: the holder
 * oracle (the exact holder set) and the dirty owner. A scheme adds
 * only the directory state its own decisions read — Dir0B's two bits,
 * Dir_i NB's pointers, Dir_i B's broadcast bit, DirCV's superset code
 * — and a full map (DirNNB, YenFu) adds none.
 *
 * The engine deliberately separates a protocol's *state-change
 * specification* from its *cost*: protocols record what happened;
 * bus/cost_model.hh later weights the records by per-operation cycle
 * costs (Section 4.1 of the paper).
 *
 * References name blocks by index into the protocol's BlockSpace
 * (cache/cache_if.hh), fixed at construction: the holder oracle, the
 * caches, and each scheme's directory are flat arenas sized for it
 * once, so the per-reference hot path performs no hashing.
 */

#ifndef DIRSIM_PROTOCOLS_PROTOCOL_HH
#define DIRSIM_PROTOCOLS_PROTOCOL_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_if.hh"
#include "common/histogram.hh"
#include "directory/sharer_set.hh"
#include "protocols/events.hh"

namespace dirsim
{

/**
 * Base class for all coherence protocols.
 *
 * The public read()/write() entry points perform the hit/miss
 * classification and Table 4 event accounting shared by every scheme,
 * then delegate the protocol-specific state changes and bus-operation
 * tallies to the handle* hooks.
 */
class CoherenceProtocol
{
  public:
    /** A two-state scheme's {clean, dirty} cache-state constants. */
    struct OracleStates
    {
        CacheBlockState clean;
        CacheBlockState dirty;
    };

    /**
     * @param num_caches_arg caches in the coherence domain (>= 1)
     * @param blocks_arg the blocks references may name; every
     *        per-block arena is sized for it here
     * @param factory cache factory; empty (the default) builds the
     *        paper's infinite caches. A factory producing finite
     *        caches enables true replacement simulation: evicted
     *        dirty blocks are written back (costed), evicted blocks
     *        leave the holder oracle, and each scheme updates its
     *        directory through onEviction().
     * @param oracle a two-state scheme's {clean, dirty} states. On
     *        infinite caches such a scheme's cache state is fully
     *        determined by the holder oracle — resident means `clean`
     *        unless the cache is the tracked dirty owner — so the
     *        engine derives every cache-state query from the oracle
     *        and builds *no* per-cache arenas: at large N those are
     *        numCaches × blockCount bytes of working set whose every
     *        probe is a cache miss, while the oracle entry is already
     *        hot from classifyOthers(). Finite caches always keep real
     *        caches.
     */
    CoherenceProtocol(unsigned num_caches_arg, const BlockSpace &blocks_arg,
                      const CacheFactory &factory = {},
                      std::optional<OracleStates> oracle = std::nullopt);
    virtual ~CoherenceProtocol() = default;

    CoherenceProtocol(const CoherenceProtocol &) = delete;
    CoherenceProtocol &operator=(const CoherenceProtocol &) = delete;

    /** Scheme name in the paper's notation, e.g. "Dir0B". */
    virtual std::string name() const = 0;

    /**
     * Process one data read.
     *
     * Contract, on infinite caches: every scheme leaves the
     * referencing cache holding the block after any reference (each
     * miss hook installs it; no write hit drops the writer's copy),
     * and only a reference to a block takes it out of a cache. So a
     * read by the cache that made the block's last reference is a
     * hit that adds Read and RdHit and changes nothing else: no cache
     * or directory state, no bus operation, no Figure 1 sample.
     * simulateTrace() (sim/decoded.hh) skips such private re-reads on
     * that premise, which the property test
     * PrivateRereadChangesOnlyReadHitCounters
     * (tests/protocols/invariants_test.cc) checks for every scheme.
     *
     * @param cache issuing cache
     * @param block referenced block index (panics outside the block
     *        space)
     * @param first_ref true when this is the globally first reference
     *        to the block in the trace (excluded from cost metrics)
     */
    void read(CacheId cache, BlockNum block, bool first_ref);

    /** Process one data write; parameters as read(). */
    void write(CacheId cache, BlockNum block, bool first_ref);

    /**
     * Attach a per-reference trace sink (nullptr detaches).
     *
     * While attached, every data reference additionally reports to
     * the sink (ProtocolTraceSink in protocols/events.hh): dataRef()
     * always, emit() at the sink's sampling period. Events carry
     * original block numbers (BlockSpace labels). Tracing never
     * changes protocol state, event counts, or operation tallies — a
     * traced run's SimResult is bit-identical to an untraced one
     * (asserted by test).
     */
    void attachTracer(ProtocolTraceSink *sink);

    /** The currently attached trace sink (nullptr when none). */
    ProtocolTraceSink *tracer() const { return traceSink; }

    EventCounts &events() { return eventCounts; }
    const EventCounts &events() const { return eventCounts; }
    const OpCounts &ops() const { return opCounts; }

    /**
     * Figure 1 data: for each write to a previously-clean block, the
     * number of *other* caches that held (and had to give up) a copy.
     */
    const Histogram &cleanWriteHolders() const { return cleanWriteHist; }

    unsigned numCaches() const { return cacheCount; }

    /** The block indices this protocol's arenas cover. */
    const BlockSpace &blockSpace() const { return blocks; }

    /** True when the caches can evict (finite-cache simulation). */
    bool finiteCaches() const { return finiteMode; }

    /** Protocol state of @p block in @p cache (stateNotPresent if out). */
    CacheBlockState cacheState(CacheId cache, BlockNum block) const;

    /** Exact set of caches holding @p block (ground truth). */
    SharerSet holders(BlockNum block) const;

    /** Blocks currently resident in at least one cache. */
    std::vector<BlockNum> residentBlocks() const;

    /** True when @p state counts as modified relative to memory. */
    virtual bool isDirtyState(CacheBlockState state) const = 0;

    /**
     * Verify the protocol's coherence invariants for @p block,
     * throwing LogicError on violation. The base check enforces the
     * universal single-writer rule and that each cache's state agrees
     * with the holder oracle and the dirty owner; subclasses add
     * scheme-specific checks (pointer budgets, superset codes, ...).
     */
    virtual void checkInvariants(BlockNum block) const;

    /** checkInvariants() over every block of the block space. */
    void checkAllInvariants() const;

  protected:
    /** What the rest of the system holds when a cache misses/writes. */
    struct Others
    {
        unsigned numOthers = 0; ///< other caches holding the block
        bool anyDirty = false;  ///< one of them holds it dirty/owned
        CacheId dirtyOwner = invalidCacheId;
        CacheId anyHolder = invalidCacheId; ///< some other holder
    };

    /** Survey all caches except @p cache for @p block. */
    Others classifyOthers(CacheId cache, BlockNum block) const;

    /**
     * Replace @p out with the holders of @p block in ascending order.
     * The allocation-free holders(): invalidation loops iterate the
     * snapshot while invalidateIn() edits the live oracle.
     */
    void snapshotHolders(BlockNum block, CacheIdList &out) const;

    /** Number of caches holding @p block. */
    unsigned holderCount(BlockNum block) const;

    /** Lowest-numbered holder of @p block; panics when none. */
    CacheId firstHolder(BlockNum block) const;

    /**
     * The holder of @p block whose cacheState() is dirty, or
     * invalidCacheId: what a directory's dirty bit would say, for the
     * schemes' invariant checks.
     */
    CacheId dirtyHolder(BlockNum block) const;

    /**
     * Apply a read miss.
     *
     * @param others what the other caches hold; Others{} for a first
     *        reference, since no copy exists anywhere yet
     * @param first true for globally-first references: install state
     *        but record no bus operations (uncosted by methodology)
     */
    virtual void handleReadMiss(CacheId cache, BlockNum block,
                                const Others &others, bool first) = 0;

    /**
     * Apply a write hit; the hook must also record the WrtHit
     * sub-event (WhBlkCln/WhBlkDrty or WhDistrib/WhLocal).
     */
    virtual void handleWriteHit(CacheId cache, BlockNum block,
                                CacheBlockState state) = 0;

    /** Apply a write miss (see handleReadMiss for @p first). */
    virtual void handleWriteMiss(CacheId cache, BlockNum block,
                                 const Others &others, bool first) = 0;

    /** Install @p block in @p cache (cache + holder oracle). */
    void install(CacheId cache, BlockNum block, CacheBlockState state);

    /** Change the state of a block the cache already holds. */
    void setState(CacheId cache, BlockNum block, CacheBlockState state);

    /** Remove @p block from @p cache (cache + holder oracle). */
    void invalidateIn(CacheId cache, BlockNum block);

    /**
     * Remove @p block from every cache but @p keeper (invalidCacheId:
     * from every cache), in ascending cache order.
     *
     * @return the number of copies invalidated
     */
    unsigned invalidateHolders(CacheId keeper, BlockNum block);

    /**
     * Scheme-specific directory maintenance after a replacement
     * evicted @p block (with @p state) from @p cache. The base class
     * has already written the block back (if dirty) and removed it
     * from the holder oracle.
     */
    virtual void onEviction(CacheId cache, BlockNum block,
                            CacheBlockState state);

    /** Record a Figure 1 sample. */
    void sampleCleanWrite(unsigned num_others)
    {
        cleanWriteHist.add(num_others);
    }

    EventCounts eventCounts;
    OpCounts opCounts;

  private:
    /** Panic unless @p cache and @p block lie in the domain. */
    void checkReference(CacheId cache, BlockNum block) const
    {
        if (cache >= cacheCount || block >= blocks.count) [[unlikely]]
            referencePanic(cache, block);
    }
    [[noreturn]] void referencePanic(CacheId cache,
                                     BlockNum block) const;

    /** Replacement evicted a block: write back, update the oracle. */
    void handleEviction(CacheId cache, BlockNum block,
                        CacheBlockState state);

    /**
     * The untraced read()/write() bodies: the public entry points
     * dispatch straight here when no sink is attached, so the
     * untraced hot path pays one branch for tracing.
     */
    void processRead(CacheId cache, BlockNum block, bool first_ref);
    void processWrite(CacheId cache, BlockNum block, bool first_ref);

    /** The traced slow path: report, sample, capture, delegate. */
    void tracedRef(CacheId cache, BlockNum block, bool first_ref,
                   bool is_write);

    /** cacheState() body without the range checks. */
    CacheBlockState stateOf(CacheId cache, BlockNum block) const;

    unsigned cacheCount;
    BlockSpace blocks;
    /** Per-cache block states; empty when derived from the oracle. */
    std::vector<std::unique_ptr<CacheModel>> caches;
    /**
     * The holder oracle: block -> exact holder set in one hybrid
     * inline/spill arena, kept in sync by the helpers.
     */
    SharerStore holderSets;
    /**
     * The cache holding each block dirty (or invalidCacheId),
     * maintained by install/setState/invalidateIn so classifyOthers()
     * needs no per-cache state survey.
     */
    std::vector<CacheId> dirtyOwners;
    Histogram cleanWriteHist;
    bool finiteMode = false;
    /** Cache state derived from the oracle (see the constructor). */
    bool oracleMode = false;
    CacheBlockState oracleClean = stateNotPresent;
    CacheBlockState oracleDirty = stateNotPresent;

    /** Attached trace sink; nullptr (the default) costs one branch. */
    ProtocolTraceSink *traceSink = nullptr;
    /** Cached sink->samplePeriod(); 0 = no timeline events. */
    unsigned tracePeriod = 0;
    /** References until the next emit() (counts down from period). */
    unsigned traceCountdown = 0;
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_PROTOCOL_HH
