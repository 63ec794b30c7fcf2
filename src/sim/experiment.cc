#include "sim/experiment.hh"

#include "common/logging.hh"

namespace dirsim
{

EventFreqs
SchemeResults::averagedFreqs() const
{
    fatalIf(perTrace.empty(), "no results to average");
    std::vector<EventFreqs> sets;
    sets.reserve(perTrace.size());
    for (const auto &result : perTrace)
        sets.push_back(result.freqs());
    return EventFreqs::average(sets);
}

Histogram
SchemeResults::mergedCleanWriteHolders() const
{
    Histogram merged;
    for (const auto &result : perTrace)
        merged.merge(result.cleanWriteHolders);
    return merged;
}

CleanWriteProfile
SchemeResults::mergedProfile() const
{
    return CleanWriteProfile::fromHistogram(mergedCleanWriteHolders());
}

OpCounts
SchemeResults::mergedOps() const
{
    OpCounts merged;
    for (const auto &result : perTrace)
        merged.merge(result.ops);
    return merged;
}

std::uint64_t
SchemeResults::mergedRefs() const
{
    std::uint64_t refs = 0;
    for (const auto &result : perTrace)
        refs += result.totalRefs;
    return refs;
}

CycleBreakdown
SchemeResults::averagedCost(const BusCosts &costs,
                            const CostOptions &options) const
{
    std::vector<CycleBreakdown> breakdowns;
    breakdowns.reserve(perTrace.size());
    for (const auto &result : perTrace)
        breakdowns.push_back(result.cost(costs, options));
    return averageBreakdowns(breakdowns);
}

CycleBreakdown
SchemeResults::paperCost(const BusCosts &costs,
                         const CostOptions &options) const
{
    const auto kind = schemeKindFromName(scheme);
    if (!kind)
        return averagedCost(costs, options);
    return costFromFreqs(*kind, averagedFreqs(), costs,
                         mergedProfile(), options);
}

const SchemeResults *
findScheme(const std::vector<SchemeResults> &grid,
           const std::string &name)
{
    for (const auto &results : grid) {
        if (results.scheme == name)
            return &results;
    }
    return nullptr;
}

CycleBreakdown
averageBreakdowns(const std::vector<CycleBreakdown> &breakdowns)
{
    fatalIf(breakdowns.empty(), "no breakdowns to average");
    CycleBreakdown avg;
    for (const auto &breakdown : breakdowns) {
        avg.dirAccess += breakdown.dirAccess;
        avg.invalidate += breakdown.invalidate;
        avg.writeBack += breakdown.writeBack;
        avg.memAccess += breakdown.memAccess;
        avg.writeThroughOrUpdate += breakdown.writeThroughOrUpdate;
        avg.transactions += breakdown.transactions;
    }
    const double n = static_cast<double>(breakdowns.size());
    avg.dirAccess /= n;
    avg.invalidate /= n;
    avg.writeBack /= n;
    avg.memAccess /= n;
    avg.writeThroughOrUpdate /= n;
    avg.transactions /= n;
    return avg;
}

double
effectiveProcessorLimit(const CycleBreakdown &cost, double mips,
                        double bus_cycle_ns)
{
    fatalIf(mips <= 0.0 || bus_cycle_ns <= 0.0,
            "effectiveProcessorLimit needs positive rates");
    // "On average each instruction in the traces makes one data
    // reference" (Section 5): a processor at `mips` issues 2*mips
    // million memory references per second, each consuming
    // cost.total() bus cycles.
    const double cycles_per_second_per_cpu =
        2.0 * mips * 1e6 * cost.total();
    const double bus_cycles_per_second = 1e9 / bus_cycle_ns;
    if (cycles_per_second_per_cpu == 0.0)
        return 0.0;
    return bus_cycles_per_second / cycles_per_second_per_cpu;
}

} // namespace dirsim
