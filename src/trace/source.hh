/**
 * @file
 * Record-at-a-time trace access.
 *
 * A TraceSource yields one TraceRecord per call, so consumers
 * (statistics, validation tools) can read traces far larger than
 * memory: the streaming readers in trace/reader.hh hold only
 * fixed-size parser state regardless of trace length. A simulation
 * does not stream: decodeTrace() (sim/decoded.hh) drains the source
 * once into a DecodedTrace of one bit per record, 7 bytes per data
 * record and 4 per coherence reference (4.1–4.5 bytes per record on
 * the paper traces), which every cell then replays. An in-memory
 * Trace needs no source: its decodeTrace() overload walks the
 * records directly.
 */

#ifndef DIRSIM_TRACE_SOURCE_HH
#define DIRSIM_TRACE_SOURCE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "trace/trace.hh"

namespace dirsim
{

/**
 * A forward-only stream of trace records plus the trace metadata.
 *
 * Sources validate as they go: next() throws UsageError (with a line
 * number or byte offset) on malformed input instead of returning a
 * bogus record, and integrity trailers (binary v2's checksum) are
 * verified when the source is drained — a consumer that reads every
 * record is guaranteed to have seen an uncorrupted trace.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next record.
     *
     * @param record filled in on success, untouched at end of stream
     * @return true if a record was produced, false at a clean end
     * @throws UsageError on malformed or corrupt input
     */
    virtual bool next(TraceRecord &record) = 0;

    /** Workload name from the container header ("" if absent). */
    virtual const std::string &name() const = 0;

    /** Declared CPU count from the header (0 = unknown). */
    virtual unsigned numCpus() const = 0;

    /** Records the container declares, when the format says. */
    virtual std::optional<std::uint64_t> sizeHint() const
    {
        return std::nullopt;
    }

    /** Human-readable format name ("binary v2", "text"). */
    virtual const char *format() const = 0;
};

/**
 * Drain a source into an in-memory Trace.
 *
 * The size hint is used for the initial reservation but capped, so a
 * hostile header cannot force an allocation larger than the input
 * actually backs.
 */
Trace readTrace(TraceSource &source);

} // namespace dirsim

#endif // DIRSIM_TRACE_SOURCE_HH
