#include "tracegen/scaling_profile.hh"

#include <string>

#include "common/env.hh"
#include "common/logging.hh"

namespace dirsim
{

namespace
{

/** Parse a comma-separated cache-count list, e.g. "4,64,1024". */
std::vector<unsigned>
parseCacheCounts(const std::string &text)
{
    std::vector<unsigned> counts;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string item = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        const std::uint64_t value =
            parseDecimal(item, "DIRSIM_SCALING_NS cache count", 65535);
        fatalIf(value == 0, "DIRSIM_SCALING_NS: cache count 0 outside "
                            "[1, 65535]");
        counts.push_back(static_cast<unsigned>(value));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    fatalIf(counts.empty(), "DIRSIM_SCALING_NS: empty list");
    return counts;
}

}

ScalingParams
ScalingParams::fromEnvironment()
{
    ScalingParams params;
    if (const auto ns = envString("DIRSIM_SCALING_NS"))
        params.cacheCounts = parseCacheCounts(*ns);
    params.refsPerTrace =
        envU64("DIRSIM_SCALING_REFS", params.refsPerTrace);
    params.seed = envU64("DIRSIM_SCALING_SEED", params.seed);
    params.clusterProcs =
        envUnsigned("DIRSIM_SCALING_CLUSTER", params.clusterProcs);
    return params;
}

WorkloadProfile
scalingProfile(unsigned num_cpus, const ScalingParams &params)
{
    fatalIf(num_cpus == 0, "scaling profile needs at least one CPU");
    WorkloadProfile p;
    p.name = "scale" + std::to_string(num_cpus);
    p.numCpus = num_cpus;
    // Fully loaded: one process per CPU, so the ready queue stays
    // empty and the migration knob (CPU swaps) is the only way
    // processes move — the rate is then directly migrationProb per
    // timeslice.
    p.numProcesses = num_cpus;

    // Thor-like mixes: a parallel application with long private
    // phases, read-mostly browsing, migratory lock payloads, and
    // MACH-scale OS activity.
    p.localWorkRefs = 600;
    p.localMix = PhaseMix{0.420, 0.410};
    p.privateWords = 8192;
    p.privateZipf = 0.80;

    p.browseProb = 0.50;
    p.browseRefs = 30;
    p.browseWriteProb = 0.010;
    p.sharedWords = 6144;
    p.sharedZipf = 0.70;

    p.lockUseProb = 0.60;
    p.numLocks = 2;
    p.criticalRefs = 300;
    p.criticalMix = PhaseMix{0.460, 0.480};
    p.mailboxBlocks = 2;
    p.lockRegionBlocks = 8;

    p.osBurstProb = 0.90;
    p.osBurstRefs = 180;
    p.osMix = PhaseMix{0.45, 0.47};
    p.kernelHotFrac = 0.05;

    // The scaling knobs proper: cluster-bounded application sharing
    // and a visible (but still rare) migration rate.
    p.sharingClusterProcs = params.clusterProcs;
    p.migrationProb = params.migrationProb;
    return p;
}

} // namespace dirsim
