#include "obs/tracer.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"

namespace dirsim
{

namespace
{

/** Record a finished write run; runs of traceDistBuckets writes or
 *  more share the last (overflow) bucket. */
void
addRun(Histogram &runs, std::uint64_t length)
{
    runs.add(std::min<std::uint64_t>(length, traceDistBuckets));
}

} // namespace

TracerConfig
TracerConfig::fromEnvironment()
{
    TracerConfig config;
    config.samplePeriod =
        envUnsigned("DIRSIM_TRACE_SAMPLE", config.samplePeriod);
    config.ringCapacity = static_cast<std::size_t>(
        envU64("DIRSIM_TRACE_RING", config.ringCapacity));
    return config;
}

EventTracer::EventTracer(TracerConfig config_arg)
    : tracerConfig(config_arg)
{}

EventTracer::~EventTracer() = default;

std::unique_ptr<EventTracer::Session>
EventTracer::session(std::string scheme, std::string trace,
                     std::optional<BlockNum> block_filter)
{
    return std::unique_ptr<Session>(new Session(
        this, std::move(scheme), std::move(trace), block_filter));
}

void
EventTracer::absorb(Session &session)
{
    // Unroll the ring into emission order: once it has wrapped, the
    // oldest surviving event sits at the head cursor.
    std::vector<ProtocolTraceEvent> events;
    events.reserve(session.ring.size());
    if (session.ring.size() < tracerConfig.ringCapacity
        || session.ringHead == 0) {
        events = std::move(session.ring);
    } else {
        events.insert(events.end(),
                      session.ring.begin()
                          + static_cast<std::ptrdiff_t>(
                              session.ringHead),
                      session.ring.end());
        events.insert(events.end(), session.ring.begin(),
                      session.ring.begin()
                          + static_cast<std::ptrdiff_t>(
                              session.ringHead));
    }

    std::lock_guard<std::mutex> lock(mutex);
    runHist.merge(session.runHist);
    emitted += session.ringSeen;
    droppedTotal += session.ringDropped;
    CellTimeline timeline;
    timeline.scheme = session.scheme;
    timeline.trace = session.trace;
    timeline.events = std::move(events);
    timeline.dropped = session.ringDropped;
    cellTimelines.push_back(std::move(timeline));
}

void
EventTracer::exportMetrics(MetricRegistry &metrics) const
{
    std::lock_guard<std::mutex> lock(mutex);
    const std::string prefix = "trace.dist.write_run_length";
    metrics.add(prefix + ".samples", runHist.samples());
    if (runHist.count(traceDistBuckets) != 0)
        metrics.add(prefix + ".overflow",
                    runHist.count(traceDistBuckets));
    for (std::uint64_t v = 0; v < traceDistBuckets; ++v) {
        if (runHist.count(v) != 0)
            metrics.add(prefix + "." + std::to_string(v),
                        runHist.count(v));
    }
    metrics.add("trace.events.emitted", emitted);
    metrics.add("trace.events.dropped", droppedTotal);
    metrics.set("trace.sample_period", tracerConfig.samplePeriod);
    metrics.set("trace.ring_capacity",
                static_cast<double>(tracerConfig.ringCapacity));
}

EventTracer::Session::Session(EventTracer *owner_arg,
                              std::string scheme_arg,
                              std::string trace_arg,
                              std::optional<BlockNum> filter_arg)
    : owner(owner_arg), scheme(std::move(scheme_arg)),
      trace(std::move(trace_arg)), blockFilter(filter_arg)
{
    ring.reserve(std::min<std::size_t>(
        owner->tracerConfig.ringCapacity, 1024));
}

EventTracer::Session::~Session()
{
    finish();
}

void
EventTracer::Session::emit(const ProtocolTraceEvent &event)
{
    if (blockFilter && event.block != *blockFilter)
        return;
    ++ringSeen;
    const std::size_t capacity = owner->tracerConfig.ringCapacity;
    if (capacity == 0) {
        ++ringDropped;
        return;
    }
    ProtocolTraceEvent stamped = event;
    stamped.tsNs = PhaseTimer::nowNs();
    if (ring.size() < capacity) {
        ring.push_back(stamped);
        return;
    }
    // Full: overwrite the oldest event in place.
    ring[ringHead] = stamped;
    ringHead = (ringHead + 1) % capacity;
    ++ringDropped;
}

void
EventTracer::Session::dataRef(BlockNum block, CacheId cache,
                              bool is_write)
{
    const auto it = openRuns.find(block);
    if (!is_write) {
        // Any read to the block ends the current write run.
        if (it != openRuns.end()) {
            addRun(runHist, it->second.length);
            openRuns.erase(it);
        }
        return;
    }
    if (it == openRuns.end()) {
        openRuns.emplace(block, WriteRun{cache, 1});
        return;
    }
    if (it->second.writer == cache) {
        ++it->second.length;
        return;
    }
    // A different cache took over writing: close and restart.
    addRun(runHist, it->second.length);
    it->second = WriteRun{cache, 1};
}

void
EventTracer::Session::finish()
{
    if (finished)
        return;
    finished = true;
    for (const auto &[block, run] : openRuns)
        addRun(runHist, run.length);
    openRuns.clear();
    owner->absorb(*this);
}

} // namespace dirsim
