/**
 * @file
 * Quickstart: generate a workload trace, simulate two coherence
 * schemes, and compare their bus traffic — the five-minute tour of
 * the dirsim API.
 */

#include <iostream>

#include "dirsim/dirsim.hh"

int
main()
{
    using namespace dirsim;

    // 1. Generate a synthetic 4-CPU workload trace (a stand-in for
    //    the paper's POPS ATUM trace). Deterministic in the seed.
    const Trace trace = generateTrace("pops", 300'000, /* seed */ 7);
    std::cout << "trace '" << trace.name() << "': " << trace.size()
              << " references from " << trace.countProcesses()
              << " processes on " << trace.numCpus() << " CPUs\n";

    // 2. Run it through a directory scheme and a snoopy scheme.
    //    A SimJob names everything one simulation needs — the trace,
    //    the scheme, the parameters — and runJob() is the one entry
    //    point (sim/job.hh; docs/api.md).
    const SimResult dir0b =
        runJob({TraceRef::of(trace), parseScheme("Dir0B"), SimConfig{}})
            .result;
    const SimResult dragon =
        runJob({TraceRef::of(trace), parseScheme("Dragon"), SimConfig{}})
            .result;

    // 3. Weight the recorded events by a bus cost model.
    const BusCosts bus = paperPipelinedCosts();
    const CycleBreakdown dir0b_cost = dir0b.cost(bus);
    const CycleBreakdown dragon_cost = dragon.cost(bus);

    std::cout << "Dir0B : " << TextTable::fixed(dir0b_cost.total(), 4)
              << " bus cycles/ref (read miss rate "
              << TextTable::pct(
                     dir0b.events.percentOfRefs(EventType::RdMiss))
              << ")\n";
    std::cout << "Dragon: " << TextTable::fixed(dragon_cost.total(), 4)
              << " bus cycles/ref (write updates "
              << TextTable::pct(
                     dragon.events.percentOfRefs(EventType::WhDistrib))
              << ")\n";

    // 4. The paper's headline observation: writes to previously-clean
    //    blocks almost always have at most one remote copy to
    //    invalidate, so small directories suffice.
    std::cout << "writes to clean blocks with <=1 remote copy: "
              << TextTable::pct(
                     100.0
                     * dir0b.cleanWriteHolders.fractionAtMost(1), 1)
              << '\n';
    return 0;
}
