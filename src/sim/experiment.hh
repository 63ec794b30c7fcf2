/**
 * @file
 * Experiment orchestration: run scheme x trace x bus grids and
 * aggregate the results the way the paper does (event frequencies
 * averaged across traces, cost models applied afterwards).
 */

#ifndef DIRSIM_SIM_EXPERIMENT_HH
#define DIRSIM_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "bus/cost_model.hh"
#include "sim/simulator.hh"

namespace dirsim
{

/** All per-trace results for one scheme. */
struct SchemeResults
{
    std::string scheme;
    std::vector<SimResult> perTrace;

    /** Table 4 style: event frequencies averaged across traces. */
    EventFreqs averagedFreqs() const;

    /** Figure 1 histogram merged over all traces. */
    Histogram mergedCleanWriteHolders() const;

    /** CleanWriteProfile of the merged histogram. */
    CleanWriteProfile mergedProfile() const;

    /** Operation counts and references summed over all traces. */
    OpCounts mergedOps() const;
    std::uint64_t mergedRefs() const;

    /**
     * Cross-trace average cost on a bus: per-trace ops-based
     * breakdowns averaged component-wise, mirroring the frequency
     * averaging of Table 4/5.
     */
    CycleBreakdown averagedCost(const BusCosts &costs,
                                const CostOptions &options = {}) const;

    /**
     * The paper's cost path: averaged frequencies + merged Figure 1
     * profile through the closed-form scheme model. Falls back to
     * averagedCost() for schemes without a closed form (Dir_i
     * families).
     */
    CycleBreakdown paperCost(const BusCosts &costs,
                             const CostOptions &options = {}) const;
};

/** @p name's results in @p grid; nullptr when the grid lacks it. */
const SchemeResults *findScheme(const std::vector<SchemeResults> &grid,
                                const std::string &name);

/** Component-wise arithmetic mean of breakdowns. */
CycleBreakdown averageBreakdowns(
    const std::vector<CycleBreakdown> &breakdowns);

/**
 * Estimate the number of processors a shared bus can sustain, the
 * paper's Section 5 back-of-envelope: a processor issuing one data
 * reference per instruction at @p mips needs total() bus cycles per
 * reference, and the bus delivers 1e9/@p bus_cycle_ns cycles/second.
 */
double effectiveProcessorLimit(const CycleBreakdown &cost, double mips,
                               double bus_cycle_ns);

} // namespace dirsim

#endif // DIRSIM_SIM_EXPERIMENT_HH
