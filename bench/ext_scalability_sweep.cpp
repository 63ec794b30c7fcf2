/**
 * @file
 * Extension (the paper's future work): "An accurate evaluation of
 * the tradeoffs will require traces from a much larger number of
 * processors." The synthetic generator has no four-CPU limit, so we
 * sweep the process/CPU count and evaluate the Dir_i families where
 * the paper could not: how do limited-pointer directories behave as
 * the sharing domain grows?
 */

#include <iostream>

#include "common/bench_common.hh"

int
main()
{
    using namespace dirsim;
    bench::banner("Extension: scalability sweep",
                  "Dir_i directories as the machine grows (pipelined "
                  "bus, pops-like workload)");

    const BusCosts costs = paperPipelinedCosts();
    const SuiteParams suite_params = SuiteParams::fromEnvironment();
    const std::uint64_t refs =
        std::max<std::uint64_t>(suite_params.refsPerTrace / 2, 100'000);

    TextTable table({"procs", "scheme", "cycles/ref", "rd-miss%",
                     "bcasts/1k refs", "fig1<=1"});
    for (const unsigned procs : {4u, 8u, 16u, 32u}) {
        WorkloadProfile profile = popsProfile();
        profile.numProcesses = procs;
        profile.numCpus = procs;
        // Scale the shared working set and lock count with the
        // machine so contention per lock stays comparable.
        profile.numLocks = std::max(1u, procs / 4);
        profile.sharedWords *= procs / 4;
        const Trace trace =
            generateTrace(profile, refs, 1000 + procs);

        for (const std::string scheme :
             {"Dir0B", "Dir1B", "Dir2B", "Dir4B", "Dir2NB", "Dir4NB",
              "DirNNB"}) {
            const SimResult result =
                simulateTrace(trace, parseScheme(scheme));
            const CycleBreakdown cost = result.cost(costs);
            table.addRow({
                std::to_string(procs),
                scheme,
                cyc(cost.total()),
                pct(result.freqs().get(EventType::RdMiss)),
                TextTable::fixed(
                    1000.0
                        * static_cast<double>(
                              result.ops.broadcastInvals)
                        / static_cast<double>(result.totalRefs),
                    3),
                TextTable::fixed(
                    result.cleanWriteHolders.fractionAtMost(1), 3),
            });
        }
        table.addRule();
    }
    table.print(std::cout);

    std::cout << "\nReading guide: if the Figure 1 property (most "
                 "clean writes have <= 1\nremote copy) survives at "
                 "larger n, small-i Dir_i B stays close to the\n"
                 "full map while Dir_i NB pays extra misses for "
                 "pointer evictions --\nthe paper's central "
                 "scalability conjecture.\n";
    return 0;
}
