/**
 * @file
 * RunManifest: the provenance record captured once per experiment
 * run and written alongside the results.
 *
 * A results file without a manifest answers "what are these numbers"
 * but not "what produced them". The manifest pins down everything a
 * reader needs to reproduce or trust a run: the full SimConfig, the
 * scheme list, per-trace provenance (path, record count, cache
 * count, and a whole-file FNV-1a 64 checksum reusing the trace
 * format v2 hash), every DIRSIM_* environment override in effect,
 * the worker count, the host, and start/end timestamps.
 *
 * `trace_tool verify` cross-checks the recorded trace
 * checksums against the files on disk; `dirsim_report` prints the
 * manifest next to the re-rendered tables.
 */

#ifndef DIRSIM_OBS_MANIFEST_HH
#define DIRSIM_OBS_MANIFEST_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"

namespace dirsim
{

class JsonWriter;
class JsonValue;

/** Where one input trace came from. */
struct TraceProvenance
{
    std::string name; ///< workload name from the trace header
    std::string path; ///< file path; empty for in-memory traces
    /** "file" for on-disk traces, "memory" for generated ones. */
    std::string source = "file";
    std::uint64_t records = 0;
    /** Caches the trace needs under the run's sharing model. */
    unsigned caches = 0;
    /** Whole-file FNV-1a 64 (trace/format.hh); file sources only. */
    std::uint64_t checksum = 0;
    bool hasChecksum = false;
};

/** Everything known about a run before/after it executes. */
struct RunManifest
{
    /** Schema version of the results file itself. */
    static constexpr unsigned schemaVersion = 1;

    std::string startedAt;  ///< ISO 8601 UTC, captured at run start
    std::string finishedAt; ///< ISO 8601 UTC, captured at run end
    std::string host;       ///< hostname ("" when unavailable)
    unsigned jobs = 1;      ///< worker threads the grid used

    // SimConfig, flattened into stable serializable fields.
    unsigned blockBytes = 0;
    std::string sharing; ///< "process" or "processor"
    std::uint64_t warmupRefs = 0;
    std::uint64_t invariantCheckPeriod = 0;
    bool hasFiniteCache = false;
    std::uint64_t finiteCapacityBytes = 0;
    unsigned finiteWays = 0;

    std::vector<std::string> schemes;
    std::vector<TraceProvenance> traces;
    /** DIRSIM_* environment overrides in effect, name-sorted. */
    std::vector<std::pair<std::string, std::string>> env;

    /** Capture config/env/host; timestamps via stamp*(). */
    static RunManifest capture(const std::vector<SchemeSpec> &schemes,
                               const SimConfig &config);

    void stampStart();
    void stampFinish();

    /** Rebuild the SimConfig the run used. */
    SimConfig toSimConfig() const;

    /** Serialize as one JSON object (kind "manifest"). */
    void writeJson(JsonWriter &writer) const;

    /** @throws UsageError on missing fields or a newer schema */
    static RunManifest fromJson(const JsonValue &json);
};

/**
 * FNV-1a 64 over a file's entire contents (streamed, bounded
 * memory) — the same hash trace format v2 embeds, applied uniformly
 * to binary and text traces.
 *
 * @throws UsageError when the file cannot be read
 */
std::uint64_t fileChecksumFnv64(const std::string &path);

/** All DIRSIM_*-prefixed environment variables, name-sorted. */
std::vector<std::pair<std::string, std::string>>
dirsimEnvironment();

} // namespace dirsim

#endif // DIRSIM_OBS_MANIFEST_HH
