/**
 * @file
 * The reference-event taxonomy of the paper's Table 4, plus the
 * abstract bus-operation counts the cost models consume.
 *
 * The paper's methodology computes, per consistency scheme, the
 * frequency of each event type as a fraction of all references; bus
 * models then weight those frequencies by per-event cycle costs. We
 * additionally tally the concrete bus operations each protocol issues
 * (OpCounts), which yields identical costs for the standard schemes
 * (asserted by test) and exact costs for the generalized Dir_i
 * schemes whose behaviour depends on run-time pointer state.
 */

#ifndef DIRSIM_PROTOCOLS_EVENTS_HH
#define DIRSIM_PROTOCOLS_EVENTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_if.hh"
#include "common/types.hh"

namespace dirsim
{

/**
 * Reference events, named after the Table 4 legend.
 *
 * Structural identities (asserted in tests):
 *   Read  = RdHit + RdMiss + RmFirstRef
 *   RdMiss = RmBlkCln + RmBlkDrty + (misses finding no other copy)
 *   Write = WrtHit + WrtMiss + WmFirstRef
 *   WrtHit = WhBlkCln + WhBlkDrty (invalidation protocols)
 *          = WhDistrib + WhLocal  (Dragon)
 *
 * First references to a block are counted separately and never
 * costed, per the paper's Section 4 methodology.
 */
enum class EventType : unsigned
{
    Instr = 0,   ///< instruction fetch
    Read,        ///< data read
    RdHit,       ///< read hit
    RdMiss,      ///< read miss (excluding first references)
    RmBlkCln,    ///< read miss, block clean in another cache
    RmBlkDrty,   ///< read miss, block dirty in another cache
    RmFirstRef,  ///< read miss, first reference to the block
    Write,       ///< data write
    WrtHit,      ///< write hit
    WhBlkCln,    ///< write hit, block clean in the writing cache
    WhBlkDrty,   ///< write hit, block dirty in the writing cache
    WhDistrib,   ///< write hit, block also in another cache (Dragon)
    WhLocal,     ///< write hit, block in no other cache (Dragon)
    WrtMiss,     ///< write miss (excluding first references)
    WmBlkCln,    ///< write miss, block clean in another cache
    WmBlkDrty,   ///< write miss, block dirty in another cache
    WmFirstRef,  ///< write miss, first reference to the block
    NumEvents,
};

inline constexpr std::size_t numEventTypes =
    static_cast<std::size_t>(EventType::NumEvents);

/** Table 4 legend string for an event ("rm-blk-cln", ...). */
const char *toString(EventType event);

/** Counters for every event type over one simulation run. */
class EventCounts
{
  public:
    EventCounts() { counts.fill(0); }

    void add(EventType event, std::uint64_t n = 1)
    {
        counts[static_cast<std::size_t>(event)] += n;
    }

    std::uint64_t count(EventType event) const
    {
        return counts[static_cast<std::size_t>(event)];
    }

    /** Total references = Instr + Read + Write. */
    std::uint64_t totalRefs() const;

    /** Event count as a fraction of all references (0 when empty). */
    double fraction(EventType event) const;

    /** Event count as a percentage of all references. */
    double percentOfRefs(EventType event) const;

    /** Aggregate another run's counts into this one. */
    void merge(const EventCounts &other);

    /**
     * Remove a snapshot previously accumulated into this object
     * (used to discard warm-up events); panics on underflow.
     */
    void subtract(const EventCounts &other);

    void clear() { counts.fill(0); }

    /** Exact per-event equality (parallel-vs-sequential checks). */
    bool operator==(const EventCounts &) const = default;

  private:
    std::array<std::uint64_t, numEventTypes> counts;
};

/**
 * Event frequencies as fractions of all references.
 *
 * This is the scheme- and trace-independent summary the cost models
 * consume; it can come from a simulation (EventCounts::fraction), an
 * average over traces, or the paper's published Table 4 (used by the
 * golden-number tests).
 */
class EventFreqs
{
  public:
    EventFreqs() { fracs.fill(0.0); }

    /** Extract fractions from raw counts. */
    static EventFreqs fromCounts(const EventCounts &counts);

    /** Arithmetic mean of several frequency sets (paper's Table 4). */
    static EventFreqs average(const std::vector<EventFreqs> &sets);

    double get(EventType event) const
    {
        return fracs[static_cast<std::size_t>(event)];
    }

    void set(EventType event, double fraction)
    {
        fracs[static_cast<std::size_t>(event)] = fraction;
    }

    /** Read misses that found no copy in any other cache. */
    double readMissNoCopy() const;

    /** Write misses that found no copy in any other cache. */
    double writeMissNoCopy() const;

    /** All misses served by a dirty remote copy. */
    double dirtyMisses() const
    {
        return get(EventType::RmBlkDrty) + get(EventType::WmBlkDrty);
    }

  private:
    std::array<double, numEventTypes> fracs;
};

/**
 * Concrete bus operations issued by a protocol over a run.
 *
 * Only operations triggered by costed events are tallied (first
 * references are excluded, matching the event counters).
 */
struct OpCounts
{
    /** Block supplied by main memory (full memory access). */
    std::uint64_t memSupplies = 0;
    /** Block supplied cache-to-cache without memory update (Dragon,
     *  Berkeley owned blocks). */
    std::uint64_t cacheSupplies = 0;
    /** Block supplied via write-back: memory updated, requester
     *  snarfs the data (directory schemes). */
    std::uint64_t dirtySupplies = 0;
    /** Directed (sequential) invalidation messages sent. */
    std::uint64_t invalMsgs = 0;
    /** Broadcast invalidations issued. */
    std::uint64_t broadcastInvals = 0;
    /** Directory probes that cannot overlap a memory access. */
    std::uint64_t dirChecks = 0;
    /** Single-word write-throughs to memory (WTI). */
    std::uint64_t writeThroughs = 0;
    /** Single-word write updates to other caches (Dragon). */
    std::uint64_t writeUpdates = 0;
    /** Directed invalidations caused by Dir_i NB pointer overflow. */
    std::uint64_t overflowInvals = 0;
    /** Write-backs of dirty blocks evicted by finite-cache
     *  replacement (capacity/conflict traffic, not coherence). */
    std::uint64_t evictionWriteBacks = 0;
    /** Bus transactions (for the Figure 5 / Section 5.1 metrics). */
    std::uint64_t busTransactions = 0;

    void merge(const OpCounts &other);

    /** Remove a previously accumulated snapshot (warm-up discard). */
    void subtract(const OpCounts &other);

    /** Exact per-operation equality. */
    bool operator==(const OpCounts &) const = default;
};

/**
 * One traced protocol state transition.
 *
 * Captured by CoherenceProtocol around a sampled data reference and
 * handed to the attached ProtocolTraceSink: the reference identity,
 * the most specific Table 4 event it classified as, the issuing
 * cache's block state before and after, the size of the rest of the
 * sharer set before and after, and the bus operations the reference
 * issued (an OpCounts delta, so per-event costs follow from the
 * ordinary cost models).
 *
 * tsNs is left zero by the protocol layer; timestamping is the
 * sink's job (obs/tracer.hh stamps PhaseTimer::nowNs()).
 */
struct ProtocolTraceEvent
{
    std::uint64_t ref = 0; ///< reference ordinal within the run
    BlockNum block = 0;
    CacheId cache = 0;
    EventType type = EventType::Read;
    bool firstRef = false;
    CacheBlockState stateBefore = stateNotPresent;
    CacheBlockState stateAfter = stateNotPresent;
    std::uint32_t othersBefore = 0; ///< other holders before
    std::uint32_t othersAfter = 0;  ///< other holders after
    OpCounts ops;                   ///< operations this reference issued
    std::uint64_t tsNs = 0;         ///< sink-stamped wall clock (ns)
};

/**
 * Where a protocol reports its per-reference activity.
 *
 * The interface lives here (not in src/obs) so the protocol layer
 * never depends on the observability library; obs/tracer.hh provides
 * the production implementation. Two channels with different
 * volumes:
 *
 *  - dataRef() fires on *every* data reference while a sink is
 *    attached, so distributions built from it are exact regardless
 *    of sampling.
 *  - emit() fires only for references selected by samplePeriod()
 *    (1 = every reference, N = every Nth, 0 = never) and carries the
 *    full before/after transition detail.
 */
class ProtocolTraceSink
{
  public:
    virtual ~ProtocolTraceSink() = default;

    /** Timeline sampling period (0 disables emit() entirely). */
    virtual unsigned samplePeriod() const { return 0; }

    /** A sampled reference's full transition record. */
    virtual void emit(const ProtocolTraceEvent &event) = 0;

    /** Every data reference (feeds write-run-length tracking). */
    virtual void dataRef(BlockNum block, CacheId cache,
                         bool is_write) = 0;
};

/**
 * The most specific event @p after counts that @p before did not:
 * used to label a traced reference with its Table 4 classification
 * (sub-events like WmBlkCln win over Write/WrtMiss).
 */
EventType mostSpecificNewEvent(const EventCounts &before,
                               const EventCounts &after);

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_EVENTS_HH
