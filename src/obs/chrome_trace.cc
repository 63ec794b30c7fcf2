#include "obs/chrome_trace.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/phase.hh"
#include "obs/tracer.hh"

namespace dirsim
{

namespace
{

/** Microseconds (Chrome's unit) from a nanosecond delta. */
double
usSince(std::uint64_t ns, std::uint64_t origin_ns)
{
    if (ns <= origin_ns)
        return 0.0;
    return static_cast<double>(ns - origin_ns) / 1e3;
}

/** Nanoseconds in @p seconds of wall time. */
std::uint64_t
nsOf(double seconds)
{
    return static_cast<std::uint64_t>(seconds * 1e9);
}

void
writeThreadName(JsonWriter &writer, unsigned tid,
                const std::string &name)
{
    writer.beginObject();
    writer.key("name").value("thread_name");
    writer.key("ph").value("M");
    writer.key("pid").value(1u);
    writer.key("tid").value(tid);
    writer.key("args").beginObject();
    writer.key("name").value(name);
    writer.endObject();
    writer.endObject();
}

} // namespace

ChromeSpanWriter::ChromeSpanWriter(
    std::ostream &os_arg, std::uint64_t origin_ns,
    const std::vector<std::string> &lane_names)
    : os(os_arg), writer(os_arg), originNs(origin_ns)
{
    writer.beginObject();
    writer.key("displayTimeUnit").value("ms");
    writer.key("traceEvents").beginArray();
    for (std::size_t lane = 0; lane < lane_names.size(); ++lane)
        writeThreadName(writer, static_cast<unsigned>(lane),
                        lane_names[lane]);
}

void
ChromeSpanWriter::write(const TraceSpan &span)
{
    writer.beginObject();
    writer.key("name").value(span.name);
    writer.key("cat").value(span.category);
    writer.key("ph").value(span.instant ? "i" : "X");
    if (span.instant)
        writer.key("s").value("t");
    writer.key("pid").value(1u);
    writer.key("tid").value(span.lane);
    writer.key("ts").value(usSince(span.startNs, originNs));
    if (!span.instant)
        writer.key("dur").value(
            static_cast<double>(span.durationNs) / 1e3);
    if (!span.args.empty()) {
        writer.key("args").beginObject();
        for (const auto &[key, value] : span.args)
            writer.key(key).value(value);
        writer.endObject();
    }
    writer.endObject();
}

void
ChromeSpanWriter::finish()
{
    writer.endArray();
    writer.endObject();
    os << '\n';
}

void
writeChromeSpans(std::ostream &os,
                 const std::vector<TraceSpan> &spans,
                 std::uint64_t origin_ns,
                 const std::vector<std::string> &lane_names)
{
    ChromeSpanWriter writer(os, origin_ns, lane_names);
    for (const TraceSpan &span : spans)
        writer.write(span);
    writer.finish();
}

std::vector<TraceSpan>
workerCellSpans(const std::vector<CellTiming> &cells,
                std::vector<std::string> &lane_names)
{
    std::vector<const CellTiming *> by_start;
    by_start.reserve(cells.size());
    for (const CellTiming &cell : cells)
        by_start.push_back(&cell);
    std::stable_sort(by_start.begin(), by_start.end(),
                     [](const CellTiming *a, const CellTiming *b) {
                         return a->startNs < b->startNs;
                     });
    std::map<std::uint64_t, unsigned> lanes;
    for (const CellTiming *cell : by_start) {
        if (lanes.contains(cell->threadTag))
            continue;
        lanes.emplace(cell->threadTag,
                      static_cast<unsigned>(lane_names.size()));
        lane_names.push_back("worker " + std::to_string(lanes.size()));
    }

    std::vector<TraceSpan> spans;
    spans.reserve(cells.size());
    for (const CellTiming &cell : cells) {
        TraceSpan span;
        span.name = cell.scheme + "/" + cell.traceName;
        span.category = "cell";
        span.lane = lanes.at(cell.threadTag);
        span.startNs = cell.startNs;
        span.durationNs = nsOf(cell.wallSeconds);
        span.args = {
            {"refs", std::to_string(cell.refs)},
            {"refs_per_second",
             std::to_string(
                 static_cast<std::uint64_t>(cell.refsPerSecond()))},
            {"cache_hit", cell.cacheHit ? "true" : "false"}};
        spans.push_back(std::move(span));
    }
    return spans;
}

void
writeChromeTrace(std::ostream &os, const GridResult &grid,
                 const EventTracer *tracer)
{
    std::vector<std::string> lane_names{"grid"};
    const std::vector<TraceSpan> cells =
        workerCellSpans(grid.cells, lane_names);
    ChromeSpanWriter out(os, grid.startNs, lane_names);

    // The grid itself, on its own lane.
    out.write({"grid", "grid", 0, grid.startNs, nsOf(grid.wallSeconds),
               {{"jobs", std::to_string(grid.jobs)},
                {"cells", std::to_string(grid.cells.size())},
                {"refs", std::to_string(grid.totalRefs())}}});

    // Each cell, then its phases laid out back-to-back inside it.
    std::map<std::string, unsigned> cell_lanes;
    const std::size_t num_traces =
        grid.schemes.empty() ? 0 : grid.schemes[0].perTrace.size();
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        for (std::size_t t = 0; t < num_traces; ++t) {
            const TraceSpan &cell = cells[s * num_traces + t];
            const PhaseBreakdown &phases =
                grid.schemes[s].perTrace[t].phases;
            cell_lanes.emplace(cell.name, cell.lane);
            out.write(cell);
            std::uint64_t phase_start = cell.startNs;
            for (std::size_t p = 0; p < numPhases; ++p) {
                const auto phase = static_cast<Phase>(p);
                const std::uint64_t phase_ns = phases.get(phase);
                if (phase_ns == 0)
                    continue;
                out.write({std::string("phase:") + toString(phase),
                           "phase", cell.lane, phase_start, phase_ns,
                           {}});
                phase_start += phase_ns;
            }
        }
    }

    if (tracer != nullptr) {
        for (const CellTimeline &timeline : tracer->timelines()) {
            const std::string cell_name =
                timeline.scheme + "/" + timeline.trace;
            const auto it = cell_lanes.find(cell_name);
            const unsigned lane =
                it != cell_lanes.end() ? it->second : 0;
            for (const ProtocolTraceEvent &event : timeline.events) {
                TraceSpan instant;
                instant.name = toString(event.type);
                instant.category = "protocol";
                instant.lane = lane;
                instant.startNs = event.tsNs;
                instant.instant = true;
                instant.args = {
                    {"cell", cell_name},
                    {"ref", std::to_string(event.ref)},
                    {"block", std::to_string(event.block)},
                    {"cache", std::to_string(event.cache)},
                    {"state_before",
                     std::to_string(
                         static_cast<unsigned>(event.stateBefore))},
                    {"state_after",
                     std::to_string(
                         static_cast<unsigned>(event.stateAfter))},
                    {"others_before",
                     std::to_string(event.othersBefore)},
                    {"others_after",
                     std::to_string(event.othersAfter)}};
                // Written and dropped: the export never holds the
                // tracer's events a second time.
                out.write(instant);
            }
        }
    }
    out.finish();
}

void
writeChromeTraceFile(const std::string &path, const GridResult &grid,
                     const EventTracer *tracer)
{
    std::ofstream out(path, std::ios::binary);
    fatalIf(!out, "cannot open chrome trace file '", path,
            "' for writing");
    writeChromeTrace(out, grid, tracer);
    out.flush();
    fatalIf(!out, "failed writing chrome trace file '", path, "'");
}

} // namespace dirsim
