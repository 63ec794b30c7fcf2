/**
 * @file
 * The scaling suite: N-cache workloads for the cache-count sweep.
 *
 * The paper's evaluation ran on a 4-CPU VAX; the modern directory
 * debate is about hundreds of sharers. This module defines the
 * machine-size axis of that study: one synthetic workload family,
 * parameterized only by the cache count N, with the sharing degree
 * (processes per sharing cluster) and the migration rate held fixed
 * across N so that cost and invalidation-distribution curves as a
 * function of N compare like against like. The examples/dirsim_scaling
 * CLI runs the scheme grid over this suite and renders those curves
 * from the run's artifacts (docs/scaling.md).
 */

#ifndef DIRSIM_SIM_SCALING_HH
#define DIRSIM_SIM_SCALING_HH

#include <vector>

#include "protocols/registry.hh"
#include "trace/trace.hh"
#include "tracegen/scaling_profile.hh"

namespace dirsim
{

/** Generate the "scale<N>" trace for one cache count. */
Trace scalingTrace(unsigned num_cpus,
                   const ScalingParams &params = {});

/**
 * The scheme axis of the scaling report: Dir0B through the full map
 * (Dir_inf), including the broadcast and no-broadcast limited-pointer
 * families at small i, the ternary coarse vector, and a region coarse
 * vector whose granularity does not divide most cache counts
 * (exercising the last-region arithmetic).
 */
std::vector<SchemeSpec> scalingSchemes();

} // namespace dirsim

#endif // DIRSIM_SIM_SCALING_HH
