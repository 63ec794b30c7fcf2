#include "sim/simulator.hh"

#include "common/env.hh"
#include "common/logging.hh"
#include "sim/job.hh"

namespace dirsim
{

namespace
{

/** Parse DIRSIM_SHARING into a SharingModel. */
SharingModel
sharingFromEnvironment(SharingModel fallback)
{
    const auto value = envString("DIRSIM_SHARING");
    if (!value)
        return fallback;
    if (*value == "process")
        return SharingModel::ByProcess;
    if (*value == "processor")
        return SharingModel::ByProcessor;
    fatal("environment variable DIRSIM_SHARING='", *value,
          "' is neither 'process' nor 'processor'");
}

} // namespace

SimConfig
SimConfig::fromEnvironment()
{
    SimConfig config;
    config.blockBytes =
        envUnsigned("DIRSIM_BLOCK_BYTES", config.blockBytes);
    config.warmupRefs = envU64("DIRSIM_WARMUP_REFS", config.warmupRefs);
    config.sharing = sharingFromEnvironment(config.sharing);
    return config;
}

unsigned
cachesNeeded(const Trace &trace, SharingModel sharing)
{
    if (sharing == SharingModel::ByProcess)
        return static_cast<unsigned>(trace.countProcesses());
    const unsigned cpus = trace.observedCpus();
    return cpus > 0 ? cpus : trace.numCpus();
}

CacheFactory
cacheFactoryFor(const SimConfig &config)
{
    CacheFactory factory;
    if (config.finiteCache) {
        const FiniteCacheConfig cache_config = *config.finiteCache;
        fatalIf(cache_config.blockBytes != config.blockBytes,
                "finite-cache block size ", cache_config.blockBytes,
                " differs from the simulation block size ",
                config.blockBytes);
        cache_config.check();
        factory = [cache_config](const BlockSpace &blocks) {
            return std::make_unique<FiniteCache>(cache_config, blocks);
        };
    }
    return factory;
}

SimResult
simulateTrace(const Trace &trace, const SchemeSpec &scheme,
              const SimConfig &config)
{
    return runJob({TraceRef::of(trace), scheme, config}).result;
}

} // namespace dirsim
