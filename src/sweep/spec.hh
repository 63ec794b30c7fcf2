/**
 * @file
 * SweepSpec: the JSON description of a parameter sweep.
 *
 * A sweep is the cross product of axes — schemes x traces x block
 * sizes x cache geometries — exactly the shape of
 * every result in the paper (Tables 4/5 are scheme x trace at one
 * block size; Figure 4 adds the block-size axis; the scaling study
 * adds cache counts). The spec is deliberately small and strict:
 * unknown keys are rejected (they are almost always typos that would
 * otherwise silently shrink a campaign), every scheme name must
 * parse, and every axis must be non-empty.
 *
 * Two entry points consume a spec:
 *
 *  - parseSweepSpec(): strict — throws UsageError on the first
 *    problem lintSweepSpec() would report, with the offending member
 *    named. The run paths (`dirsim_sweep`, the `dirsim_serve` POST
 *    handler) use this, so no cell runs before the whole spec is
 *    known good; a daemon turns the exception into a 400 with the
 *    message as the diagnostic.
 *  - lintSweepSpec(): exhaustive — collects *every* problem
 *    (unknown schemes, empty axes, cache counts past the trace
 *    format's u16 cpu ids, impossible geometries, duplicate cells)
 *    so `dirsim_sweep plan` can report them all at once.
 *
 * The two accept exactly the same specs.
 *
 * See docs/sweep.md for the schema and worked examples.
 */

#ifndef DIRSIM_SWEEP_SPEC_HH
#define DIRSIM_SWEEP_SPEC_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"
#include "sim/simulator.hh"

namespace dirsim
{

class JsonValue;

/** One entry of the spec's "traces" axis. */
struct SweepTraceEntry
{
    enum class Kind
    {
        Profile, ///< generated from a tracegen profile
        File,    ///< an on-disk trace file
    };

    Kind kind = Kind::Profile;

    /** Profile name: "pops", "thor", "pero", or "scale" (the N-cache
     *  scaling workload; requires "caches"). */
    std::string profile;

    /** Target references for generated traces. */
    std::uint64_t refs = 60'000;

    /** Generation seed. */
    std::uint64_t seed = 88;

    /**
     * Cache-count axis for generated traces: one trace instance per
     * count (the profile is widened to that many CPUs/processes).
     * Empty keeps the profile's native machine size. Counts must fit
     * the trace format's u16 cpu ids.
     */
    std::vector<unsigned> caches;

    /** Trace file path (Kind::File). */
    std::string file;
};

/** One entry of the spec's "geometries" axis. */
struct SweepGeometry
{
    /** True = the paper's infinite caches (the JSON value
     *  "infinite"); false = a finite geometry. */
    bool infinite = true;
    std::uint64_t capacityBytes = 0;
    unsigned ways = 0;

    /** Stable short label: "inf" or "<capacity>B<ways>w". */
    std::string label() const;

    bool operator==(const SweepGeometry &) const = default;
};

/** A parsed sweep specification. */
struct SweepSpec
{
    /** Campaign name; becomes the artifact directory's default. */
    std::string name;

    /** Scheme axis (canonical paper notation, validated). */
    std::vector<std::string> schemes;

    /** Trace axis. */
    std::vector<SweepTraceEntry> traces;

    /** Block-size axis in bytes. */
    std::vector<unsigned> blockBytes{defaultBlockBytes};

    /** Cache-geometry axis. */
    std::vector<SweepGeometry> geometries{SweepGeometry{}};

    /** Measurement warm-up applied to every cell. */
    std::uint64_t warmupRefs = 0;

    /** Record-to-cache mapping applied to every cell. */
    SharingModel sharing = SharingModel::ByProcess;
};

/**
 * Parse a complete sweep spec from JSON text.
 *
 * @throws UsageError on malformed JSON (message carries the byte
 *         offset) or on the first problem lintSweepSpec() reports
 *         (message names the member)
 */
SweepSpec parseSweepSpec(std::string_view text);

/** parseSweepSpec() on an already-parsed document. */
SweepSpec parseSweepSpec(const JsonValue &json);

/** Read and parse a sweep spec file.
 *  @throws UsageError when unreadable or invalid */
SweepSpec loadSweepSpec(const std::string &path);

/** One problem lintSweepSpec() found. */
struct SweepDiagnostic
{
    std::string where;   ///< spec location, e.g. "schemes[2]"
    std::string message; ///< what is wrong with it
};

/**
 * Exhaustively lint sweep-spec text: structural problems, unknown
 * scheme names, empty axes, cache counts that overflow the trace
 * format's u16 cpu ids, impossible finite-cache geometries, and
 * axis repeats that would expand into duplicate cells. Returns every
 * problem found (empty = clean); never throws on bad input.
 */
std::vector<SweepDiagnostic> lintSweepSpec(std::string_view text);

} // namespace dirsim

#endif // DIRSIM_SWEEP_SPEC_HH
