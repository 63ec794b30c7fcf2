#include "sim/scaling.hh"

#include "common/logging.hh"
#include "tracegen/generator.hh"

namespace dirsim
{

Trace
scalingTrace(unsigned num_cpus, const ScalingParams &params)
{
    fatalIf(params.refsPerTrace == 0,
            "scaling traces cannot be empty");
    // Distinct derived seeds keep the per-N random streams unrelated
    // while the whole suite remains a function of the base seed.
    return generateTrace(scalingProfile(num_cpus, params),
                         params.refsPerTrace,
                         params.seed * 31 + num_cpus);
}

std::vector<SchemeSpec>
scalingSchemes()
{
    // Dir0B through Dir_inf, plus both coarse-vector codes. The
    // region granularity 12 deliberately divides none of the default
    // cache counts, so every entry carries a short last region.
    return parseSchemes({"Dir0B", "Dir1NB", "Dir2NB", "Dir4NB", "Dir4B",
                         "DirCV", "DirCVr12", "DirNNB"});
}

} // namespace dirsim
