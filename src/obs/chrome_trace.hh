/**
 * @file
 * Chrome trace_event JSON export of a finished grid.
 *
 * ChromeSpanWriter is the one writer of Chrome trace_event-format
 * documents ({"traceEvents": [...]}, loadable in chrome://tracing or
 * Perfetto); every timeline is a sequence of TraceSpans handed to it
 * one at a time, each written as it arrives, so a timeline of any
 * length is never held whole. writeChromeSpans() feeds it a list.
 * workerCellSpans() lays a run's cells out on worker lanes for both
 * the grid export and the daemon's GET /runs/{id}/trace.
 *
 * writeChromeTrace() lays a GridResult out as: one timeline lane per
 * worker thread, one complete ("X") slice per grid cell, nested
 * slices for the cell's phase breakdown (read/warmup/simulate/
 * reduce, from the phase timers), and — when an EventTracer ran
 * alongside — instant ("i") events for the sampled protocol
 * transitions. Every arg is a string.
 *
 * Timestamps are microseconds relative to the grid start, taken from
 * the same PhaseTimer::nowNs() clock the cells and tracer sessions
 * stamp, so cells and protocol events line up on one axis. Phase
 * slices are laid out cumulatively inside their cell (phases do not
 * record their own start times), which matches reality because the
 * phases of a cell run back-to-back.
 */

#ifndef DIRSIM_OBS_CHROME_TRACE_HH
#define DIRSIM_OBS_CHROME_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "sim/runner.hh"

namespace dirsim
{

class EventTracer;

/**
 * One timeline event for writeChromeSpans(): a slice with a start
 * and a duration on the PhaseTimer::nowNs() clock, or an instant.
 * The daemon uses these for its run-scoped traces (queue-wait, run
 * execution, per-cell slices, HTTP requests) without needing a
 * GridResult.
 */
struct TraceSpan
{
    std::string name;
    std::string category;
    /** Timeline lane ("tid" in the trace viewer). */
    unsigned lane = 0;
    /** PhaseTimer::nowNs() stamps. */
    std::uint64_t startNs = 0;
    std::uint64_t durationNs = 0;
    /** Extra args rendered as strings under the slice. */
    std::vector<std::pair<std::string, std::string>> args;
    /** A thread-scoped instant ("i") event at startNs instead of a
     *  complete ("X") slice; durationNs is ignored. */
    bool instant = false;
};

/**
 * A Chrome trace_event document written span by span: the
 * constructor opens it and labels the lanes, write() emits one span,
 * finish() closes it. Timestamps are emitted relative to the origin
 * (a span starting before it clamps to 0).
 */
class ChromeSpanWriter
{
  public:
    /** @p lane_names labels lanes 0..N-1. */
    ChromeSpanWriter(std::ostream &os_arg, std::uint64_t origin_ns,
                     const std::vector<std::string> &lane_names);

    void write(const TraceSpan &span);

    /** Close the document; write nothing after. */
    void finish();

  private:
    std::ostream &os;
    JsonWriter writer;
    std::uint64_t originNs;
};

/** Write @p spans through a ChromeSpanWriter. */
void writeChromeSpans(
    std::ostream &os, const std::vector<TraceSpan> &spans,
    std::uint64_t origin_ns,
    const std::vector<std::string> &lane_names = {});

/**
 * Lay @p cells out on worker lanes: one "cell" span per timing, in
 * input order, named "<scheme>/<trace>" with args refs,
 * refs_per_second (whole) and cache_hit. Each worker takes the next
 * free lane, lane_names.size() onward, in order of its first cell
 * start, so a sequential run lands on one lane; @p lane_names gains
 * "worker 1".."worker N" for those lanes.
 */
std::vector<TraceSpan>
workerCellSpans(const std::vector<CellTiming> &cells,
                std::vector<std::string> &lane_names);

/**
 * Write @p grid (and, optionally, @p tracer's sampled timelines) as
 * a Chrome trace_event JSON document through a ChromeSpanWriter,
 * one span at a time.
 */
void writeChromeTrace(std::ostream &os, const GridResult &grid,
                      const EventTracer *tracer = nullptr);

/** writeChromeTrace() to a file. @throws UsageError when unwritable */
void writeChromeTraceFile(const std::string &path,
                          const GridResult &grid,
                          const EventTracer *tracer = nullptr);

} // namespace dirsim

#endif // DIRSIM_OBS_CHROME_TRACE_HH
