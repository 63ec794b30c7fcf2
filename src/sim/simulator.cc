#include "sim/simulator.hh"

#include "common/env.hh"
#include "common/logging.hh"
#include "sim/decoded.hh"
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

SimResult
simulateTraceFile(const std::string &path, const SchemeSpec &scheme,
                  const SimConfig &config)
{
    // One streaming read both sizes the coherence domain and captures
    // the records; the whole decode is the cell's Read phase.
    const std::uint64_t read_start = PhaseTimer::nowNs();
    const DecodedTrace decoded =
        decodeTraceFile(path, config.blockBytes, config.sharing);
    const std::uint64_t read_ns = PhaseTimer::nowNs() - read_start;
    SimResult result = simulateTrace(decoded, scheme, config);
    result.phases.add(Phase::Read, read_ns);
    return result;
}

SimResult
simulateTraceFile(const std::string &path, const std::string &scheme,
                  const SimConfig &config)
{
    return simulateTraceFile(path, parseScheme(scheme), config);
}

SimResult
simulateTrace(const Trace &trace, const std::string &scheme,
              const SimConfig &config)
{
    return simulateTrace(trace, parseScheme(scheme), config);
}

} // namespace dirsim
