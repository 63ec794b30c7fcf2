/**
 * @file
 * The "scale<N>" workload family: one synthetic profile parameterized
 * only by the cache count N, with the sharing degree and the migration
 * rate held fixed across N (docs/scaling.md). The scaling suite
 * (sim/scaling.hh) and a sweep's "scale" traces generate from it.
 */

#ifndef DIRSIM_TRACEGEN_SCALING_PROFILE_HH
#define DIRSIM_TRACEGEN_SCALING_PROFILE_HH

#include <cstdint>
#include <vector>

#include "tracegen/profile.hh"

namespace dirsim
{

/** Parameters of the scaling suite. */
struct ScalingParams
{
    /**
     * Cache counts to sweep. The defaults cover the paper's machine
     * (4) through the sizes the scalability debate is about; every
     * count must fit the trace format's u16 cpu ids.
     */
    std::vector<unsigned> cacheCounts{4, 16, 64, 256, 1024};

    /**
     * References per trace — the same for every N, so per-reference
     * metrics compare directly across machine sizes.
     */
    std::uint64_t refsPerTrace = 600'000;

    /** Base seed; each N derives its own from it. */
    std::uint64_t seed = 1024;

    /**
     * Sharing degree: processes per sharing cluster
     * (WorkloadProfile::sharingClusterProcs). Application data is
     * shared by at most this many caches; kernel hot words stay
     * machine-global, giving the widely-shared tail.
     */
    unsigned clusterProcs = 4;

    /**
     * Per-timeslice CPU-swap probability on the fully-loaded machine
     * (WorkloadProfile::migrationProb). One order of magnitude above
     * the paper-default so migration-induced sharing is visible at
     * suite-sized traces while staying rare per reference.
     */
    double migrationProb = 0.002;

    /**
     * Apply the DIRSIM_SCALING_{NS,REFS,SEED,CLUSTER} environment
     * overrides, if set. DIRSIM_SCALING_NS is a comma-separated list
     * of cache counts, e.g. "4,64,1024".
     */
    static ScalingParams fromEnvironment();
};

/**
 * The N-cache workload profile, named "scale<N>".
 *
 * A fully-loaded machine (one process per CPU, so the migration knob
 * is live), thor-like reference mixes, and cluster-partitioned
 * application sharing per @p params. Deterministic: depends only on
 * (num_cpus, params).
 */
WorkloadProfile scalingProfile(unsigned num_cpus,
                               const ScalingParams &params = {});

} // namespace dirsim

#endif // DIRSIM_TRACEGEN_SCALING_PROFILE_HH
