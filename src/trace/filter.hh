/**
 * @file
 * Trace transformations used by the paper's experiments.
 *
 *  - excludeLockRefs(): Section 5.2 re-runs the simulations
 *    "excluding all the tests on locks".
 *  - keepUserOnly(): isolate application behaviour from OS activity.
 *
 * The paper's other trace variant, per-processor rather than
 * per-process caches, is a SimConfig choice (SharingModel), not a
 * rewritten trace.
 */

#ifndef DIRSIM_TRACE_FILTER_HH
#define DIRSIM_TRACE_FILTER_HH

#include "trace/trace.hh"

namespace dirsim
{

/** Remove every reference to a lock word (spin reads and lock writes). */
Trace excludeLockRefs(const Trace &trace);

/** Remove only spin reads, keeping the T&S/unlock writes. */
Trace excludeSpinReads(const Trace &trace);

/** Keep only user-mode references. */
Trace keepUserOnly(const Trace &trace);

} // namespace dirsim

#endif // DIRSIM_TRACE_FILTER_HH
