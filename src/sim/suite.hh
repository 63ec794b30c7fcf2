/**
 * @file
 * The standard experiment suite: the three synthetic workload traces
 * standing in for the paper's POPS / THOR / PERO ATUM traces, at a
 * common length and with fixed seeds, so every `repro` artifact and
 * ext_* study operates on identical inputs.
 */

#ifndef DIRSIM_SIM_SUITE_HH
#define DIRSIM_SIM_SUITE_HH

#include <cstdint>
#include <vector>

#include "trace/trace.hh"

namespace dirsim
{

/** Parameters of the standard suite. */
struct SuiteParams
{
    /**
     * References per trace. The paper's traces hold ~3.2M references;
     * the default is sized so the full repro grid still runs in
     * seconds. Override via DIRSIM_SUITE_REFS for paper-scale runs.
     */
    std::uint64_t refsPerTrace = 1'500'000;
    /** Base seed; each workload derives its own from it. */
    std::uint64_t seed = 88;

    /**
     * Apply the DIRSIM_SUITE_REFS / DIRSIM_SUITE_SEED environment
     * overrides, if set.
     */
    static SuiteParams fromEnvironment();
};

/** Generate the pops, thor, and pero traces (in that order). */
std::vector<Trace> standardSuite(const SuiteParams &params =
                                     SuiteParams::fromEnvironment());

} // namespace dirsim

#endif // DIRSIM_SIM_SUITE_HH
