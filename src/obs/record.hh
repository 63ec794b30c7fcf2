/**
 * @file
 * CellRecord: the structured artifact of one (scheme, trace) grid
 * cell.
 *
 * A record carries everything a SimResult holds — the full event
 * vector, the concrete operation counts, the Figure 1 histogram —
 * plus execution metadata (wall time, throughput, phase breakdown,
 * trace provenance path). Because the payload is the raw integer
 * counters rather than derived floats, a record round-trips through
 * JSON losslessly and every paper table can be re-rendered from it
 * bit-identically to the in-process report.hh output (asserted by
 * tests/sim/report_parity_test.cc).
 */

#ifndef DIRSIM_OBS_RECORD_HH
#define DIRSIM_OBS_RECORD_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/phase.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace dirsim
{

class JsonWriter;
class JsonValue;

/**
 * Stable snake_case key for an event type, used in JSONL records and
 * metric names (e.g. RdMiss -> "rd_miss", WmBlkCln -> "wm_blk_cln").
 */
const std::string &eventKey(EventType event);

/** The OpCounts fields as (key, member pointer) pairs, in a fixed
 *  order shared by the JSON schema and the metric names. */
const std::vector<std::pair<const char *,
                            std::uint64_t OpCounts::*>> &
opFields();

/** One grid cell's results + execution metadata. */
struct CellRecord
{
    std::string scheme;
    std::string trace;
    /** Source file of the trace; empty for in-memory/generated. */
    std::string tracePath;
    unsigned numCaches = 0;
    std::uint64_t totalRefs = 0;

    EventCounts events;
    OpCounts ops;
    Histogram cleanWriteHolders;

    double wallSeconds = 0.0;
    PhaseBreakdown phases;

    double
    refsPerSecond() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(totalRefs) / wallSeconds
            : 0.0;
    }

    /** Ops-based cost under a bus model (same as SimResult::cost). */
    CycleBreakdown cost(const BusCosts &costs) const;

    /** Rebuild the SimResult this record was captured from. */
    SimResult toSimResult() const;

    /** Capture a cell from its result and timing. */
    static CellRecord fromCell(const SimResult &result,
                               const CellTiming &timing,
                               std::string trace_path = {});

    /**
     * Serialize as one JSON object (kind "cell"): identity, raw
     * counters, the Figure 1 histogram buckets, wall/phase times, and
     * — derived for human consumption — the cost breakdown under both
     * paper bus models.
     */
    void writeJson(JsonWriter &writer) const;

    /**
     * Rebuild from writeJson() output. Derived fields (costs,
     * refs/sec) are recomputed from the raw counters, never trusted
     * from the file.
     *
     * @throws UsageError on missing fields or malformed values
     */
    static CellRecord fromJson(const JsonValue &json);
};

/**
 * Regroup flat cell records into the per-scheme structure the
 * report.hh tables consume. Scheme order and per-scheme trace order
 * follow first appearance in @p records (which is grid order for
 * sink-written files).
 */
std::vector<SchemeResults> toSchemeResults(
    const std::vector<CellRecord> &records);

} // namespace dirsim

#endif // DIRSIM_OBS_RECORD_HH
