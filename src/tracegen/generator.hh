/**
 * @file
 * Top-level synthetic trace generation entry points.
 */

#ifndef DIRSIM_TRACEGEN_GENERATOR_HH
#define DIRSIM_TRACEGEN_GENERATOR_HH

#include <cstdint>
#include <string>

#include "trace/trace.hh"
#include "tracegen/profile.hh"

namespace dirsim
{

/**
 * Version of the generator's output, folded into every recipe
 * checksum (TraceRecipe::checksum()). Bump it on any change that
 * alters what a recipe generates, so cell-cache entries keyed on the
 * old output miss instead of lying. The GeneratorTest output digests,
 * taken through TraceRecipe::generate(), catch such a change.
 */
inline constexpr std::uint32_t tracegenVersion = 1;

/**
 * Generate a synthetic multiprocessor trace.
 *
 * Deterministic: the same (profile, target_refs, seed) triple always
 * produces the identical trace, on any platform.
 *
 * @param profile workload parameters (see tracegen/profile.hh)
 * @param target_refs approximate trace length in references (the
 *        trace ends at the first timeslice boundary past the target)
 * @param seed random seed
 */
Trace generateTrace(const WorkloadProfile &profile,
                    std::uint64_t target_refs, std::uint64_t seed);

/** generateTrace() with a profile looked up by name. */
Trace generateTrace(const std::string &workload,
                    std::uint64_t target_refs, std::uint64_t seed);

/**
 * What a generated trace is made from. Generation is deterministic, so
 * a recipe stands for its trace's content: checksum() keys the cell
 * cache without generating anything. Everything that decides what a
 * recipe generates lives in tracegen, under tracegenVersion.
 */
struct TraceRecipe
{
    /** "pops", "thor", "pero" (profileByName()) or "scale"
     *  (scalingProfile()). */
    std::string profile;
    /** Machine size. 0 keeps a named profile's own; a named profile
     *  widened to N caches runs one process per CPU. "scale" needs
     *  it. */
    unsigned caches = 0;
    std::uint64_t refs = 0;
    std::uint64_t seed = 0;

    /** Generate the trace. Equal recipes give identical traces. */
    Trace generate() const;

    /** FNV-1a 64 over
     *  "tracegen v<tracegenVersion>|<profile>|<caches>|<refs>|<seed>". */
    std::uint64_t checksum() const;
};

} // namespace dirsim

#endif // DIRSIM_TRACEGEN_GENERATOR_HH
