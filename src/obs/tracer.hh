/**
 * @file
 * EventTracer: the production ProtocolTraceSink.
 *
 * A tracer owns the merged per-run view; each (scheme, trace) grid
 * cell gets its own CellTraceSession, which is what actually plugs
 * into the protocol (SimConfig::traceSink). A session is touched by
 * exactly one worker thread for the lifetime of its cell — it owns a
 * private bounded ring buffer and a private write-run histogram, so
 * the simulation hot path takes no locks; the tracer's mutex is
 * taken only at session open and close (merge). That is what keeps
 * the per-thread ring buffers ThreadSanitizer-clean under the
 * parallel runner.
 *
 * Volume control is layered:
 *  - run time: TracerConfig::samplePeriod (DIRSIM_TRACE_SAMPLE)
 *    thins the *timeline* — only every Nth reference produces a full
 *    ProtocolTraceEvent. The write-run histogram is fed from the
 *    unsampled dataRef() callback, so it is exact at every sampling
 *    period whenever a session is attached at all;
 *  - space: the ring keeps the most recent ringCapacity events per
 *    cell (DIRSIM_TRACE_RING) and counts what it dropped.
 */

#ifndef DIRSIM_OBS_TRACER_HH
#define DIRSIM_OBS_TRACER_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.hh"
#include "protocols/events.hh"

namespace dirsim
{

class MetricRegistry;

/** Write runs of this many writes or more share the last bucket of
 *  the write-run histogram, which exportMetrics() names "overflow";
 *  shorter runs resolve exactly. */
inline constexpr std::size_t traceDistBuckets = 64;

/** Tracer knobs. */
struct TracerConfig
{
    /**
     * Timeline sampling period: 1 records every data reference, N
     * every Nth, 0 (the default) disables the tracer entirely — no
     * sessions should be created and no per-reference work happens.
     */
    unsigned samplePeriod = 0;

    /** Ring capacity: most-recent events kept per cell session. */
    std::size_t ringCapacity = 4096;

    /** True when tracing should be wired up at all. */
    bool enabled() const { return samplePeriod != 0; }

    /** Apply DIRSIM_TRACE_SAMPLE / DIRSIM_TRACE_RING overrides. */
    static TracerConfig fromEnvironment();
};

/** One cell's sampled timeline, as merged into the tracer. */
struct CellTimeline
{
    std::string scheme;
    std::string trace;
    /** Sampled events in emission order (ring survivors). */
    std::vector<ProtocolTraceEvent> events;
    /** Events the bounded ring had to discard (oldest first). */
    std::uint64_t dropped = 0;
};

/**
 * The per-run event tracer.
 *
 * Thread-safe for session() / close from concurrent workers; the
 * accessors are meant to be called after the grid (all sessions
 * closed).
 */
class EventTracer
{
  public:
    class Session;

    explicit EventTracer(TracerConfig config_arg = {});
    ~EventTracer();

    EventTracer(const EventTracer &) = delete;
    EventTracer &operator=(const EventTracer &) = delete;

    /**
     * Open a session for one grid cell. The returned session is the
     * ProtocolTraceSink to attach (SimConfig::traceSink); destroying
     * it (or calling finish()) merges its data into this tracer.
     *
     * @param block_filter when set, only timeline events touching
     *        this block are kept (the histogram still sees everything)
     */
    std::unique_ptr<Session> session(
        std::string scheme, std::string trace,
        std::optional<BlockNum> block_filter = std::nullopt);

    const TracerConfig &config() const { return tracerConfig; }

    /** Lengths of uninterrupted single-writer runs per block, each
     *  clamped to traceDistBuckets. */
    const Histogram &writeRunLengths() const { return runHist; }

    /** Timeline events emitted across all sessions (kept+dropped). */
    std::uint64_t emittedEvents() const { return emitted; }

    /** Timeline events discarded by the bounded rings. */
    std::uint64_t droppedEvents() const { return droppedTotal; }

    /** Per-cell timelines in session-close order. */
    const std::vector<CellTimeline> &timelines() const
    {
        return cellTimelines;
    }

    /**
     * Export the write-run histogram and volume counters into
     * @p metrics under "trace.":
     * trace.dist.write_run_length.{samples,overflow,<k>} counters
     * plus trace.events.{emitted,dropped} — the shape dirsim_report
     * re-renders the write-run table from.
     */
    void exportMetrics(MetricRegistry &metrics) const;

  private:
    friend class Session;

    void absorb(Session &session);

    TracerConfig tracerConfig;
    mutable std::mutex mutex;
    Histogram runHist;
    std::vector<CellTimeline> cellTimelines;
    std::uint64_t emitted = 0;
    std::uint64_t droppedTotal = 0;
};

/**
 * The per-cell sink (see EventTracer). Single-threaded by contract:
 * exactly one worker drives it between open and close.
 */
class EventTracer::Session : public ProtocolTraceSink
{
  public:
    ~Session() override;

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    unsigned samplePeriod() const override
    {
        return owner->tracerConfig.samplePeriod;
    }

    void emit(const ProtocolTraceEvent &event) override;
    void dataRef(BlockNum block, CacheId cache,
                 bool is_write) override;

    /** Merge into the tracer now (idempotent; destructor calls it). */
    void finish();

  private:
    friend class EventTracer;

    Session(EventTracer *owner_arg, std::string scheme_arg,
            std::string trace_arg,
            std::optional<BlockNum> filter_arg);

    /** An in-progress single-writer run on one block. */
    struct WriteRun
    {
        CacheId writer = invalidCacheId;
        std::uint64_t length = 0;
    };

    EventTracer *owner;
    std::string scheme;
    std::string trace;
    std::optional<BlockNum> blockFilter;

    /** Bounded ring: the most recent ringCapacity events. */
    std::vector<ProtocolTraceEvent> ring;
    std::size_t ringHead = 0;
    std::uint64_t ringSeen = 0;
    std::uint64_t ringDropped = 0;

    Histogram runHist;
    std::unordered_map<BlockNum, WriteRun> openRuns;
    bool finished = false;
};

} // namespace dirsim

#endif // DIRSIM_OBS_TRACER_HH
