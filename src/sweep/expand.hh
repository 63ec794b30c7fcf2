/**
 * @file
 * Sweep expansion: the cross product of a SweepSpec's axes, resolved
 * into an ordered list of concrete cells.
 *
 * Expansion is pure bookkeeping — no traces are generated, no files
 * are read — so `dirsim_sweep plan` can show what a spec will run
 * (and how big it is) instantly. The cell order is deterministic
 * (trace-major: trace instance, then scheme, then block size, then
 * geometry), which fixes the artifact order and makes
 * re-runs byte-comparable.
 *
 * Each cell carries a stable label ("<trace>@b32@64KiB..." — axis
 * values appear in the label only when their axis has more than one
 * value), used as the artifact trace name so every cell of a sweep
 * is addressable in reports and diffs.
 */

#ifndef DIRSIM_SWEEP_EXPAND_HH
#define DIRSIM_SWEEP_EXPAND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "protocols/registry.hh"
#include "sweep/spec.hh"
#include "trace/trace.hh"
#include "tracegen/generator.hh"

namespace dirsim
{

/** One concrete trace the sweep will simulate. */
struct SweepTraceInstance
{
    SweepTraceEntry::Kind kind = SweepTraceEntry::Kind::Profile;

    /** Unique instance label, e.g. "pops", "scale64", "pops-r80000". */
    std::string label;

    // Generated instances.
    std::string profile;
    /** Machine size override; 0 keeps the profile's native size. */
    unsigned caches = 0;
    std::uint64_t refs = 0;
    std::uint64_t seed = 0;

    // File instances.
    std::string path;

    /** A generated instance's recipe: what it generates, and the
     *  identity its cells are cached under. */
    TraceRecipe recipe() const;
};

/** One cell of the expanded sweep. */
struct SweepCell
{
    std::size_t traceIndex = 0; ///< into SweepPlan::traces
    SchemeSpec scheme;
    unsigned blockBytes = defaultBlockBytes;
    SweepGeometry geometry;

    /** Trace label + variant suffixes; the artifact cell name. */
    std::string label;

    /** The cell's SimConfig (block size, geometry, warm-up, sharing
     *  from the spec). */
    SimConfig config(const SweepSpec &spec) const;
};

/** A fully-expanded sweep. */
struct SweepPlan
{
    SweepSpec spec;
    std::vector<SchemeSpec> schemes;
    std::vector<SweepTraceInstance> traces;
    /** Cells in deterministic trace-major order. */
    std::vector<SweepCell> cells;

    /** Sum of the generated traces' target refs over all cells —
     *  a planning estimate (file cells contribute 0: their length is
     *  unknown until read). */
    std::uint64_t targetCellRefs() const;
};

/**
 * Expand a spec into its plan.
 *
 * @throws UsageError on specs that cannot expand (parseSweepSpec()
 *         already rejects most; this re-checks axis emptiness for
 *         hand-built specs)
 */
SweepPlan expandSweep(const SweepSpec &spec);

/**
 * Generate every Profile-kind trace instance of a plan (in instance
 * order; File instances yield nullptr). Deterministic: depends only
 * on the plan. runSweep() does not call it: its cells generate their
 * traces on demand.
 */
std::vector<std::unique_ptr<Trace>> materializeSweepTraces(
    const SweepPlan &plan);

} // namespace dirsim

#endif // DIRSIM_SWEEP_EXPAND_HH
