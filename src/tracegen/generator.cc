#include "tracegen/generator.hh"

#include <sstream>

#include "trace/format.hh"
#include "tracegen/scaling_profile.hh"
#include "tracegen/scheduler.hh"

namespace dirsim
{

Trace
generateTrace(const WorkloadProfile &profile,
              std::uint64_t target_refs, std::uint64_t seed)
{
    TraceScheduler scheduler(profile, seed);
    return scheduler.generate(target_refs);
}

Trace
generateTrace(const std::string &workload, std::uint64_t target_refs,
              std::uint64_t seed)
{
    return generateTrace(profileByName(workload), target_refs, seed);
}

Trace
TraceRecipe::generate() const
{
    WorkloadProfile workload;
    if (profile == "scale") {
        workload = scalingProfile(caches);
    } else {
        workload = profileByName(profile);
        if (caches != 0) {
            // Widen like the scaling suite: fully loaded, one process
            // per CPU.
            workload.numCpus = caches;
            workload.numProcesses = caches;
        }
    }
    workload.check();
    return generateTrace(workload, refs, seed);
}

std::uint64_t
TraceRecipe::checksum() const
{
    std::ostringstream recipe;
    recipe << "tracegen v" << tracegenVersion << "|" << profile << "|"
           << caches << "|" << refs << "|" << seed;
    const std::string text = recipe.str();
    traceformat::Fnv64 fnv;
    fnv.update(text.data(), text.size());
    return fnv.value();
}

} // namespace dirsim
