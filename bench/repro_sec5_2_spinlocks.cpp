/**
 * @file
 * Section 5.2: impact of spin locks. Re-run the simulations with all
 * lock references excluded from the traces: Dir0B barely changes
 * while Dir1NB improves dramatically (paper: 0.32 -> 0.12 bus
 * cycles/ref), because spin locks bounce between the caches of
 * contending processes under the single-copy rule. Software schemes
 * that flush critical sections behave like Dir1NB, hence the paper's
 * warning about lock handling.
 */

#include <iostream>

#include "common/bench_common.hh"

int
main(int argc, char **argv)
{
    dirsim::bench::initArtifacts(argc, argv);
    using namespace dirsim;
    bench::banner("Section 5.2",
                  "Impact of spin-lock references (pipelined bus)");

    const BusCosts costs = paperPipelinedCosts();
    const auto &grid = bench::paperGrid();

    std::vector<Trace> filtered;
    for (const auto &trace : bench::suite())
        filtered.push_back(excludeLockRefs(trace));
    const auto filtered_grid =
        ExperimentRunner()
            .run(parseSchemes(paperSchemes()), filtered)
            .schemes;

    TextTable table({"scheme", "with locks", "locks excluded",
                     "change"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const double before = grid[i].averagedCost(costs).total();
        const double after =
            filtered_grid[i].averagedCost(costs).total();
        table.addRow({
            grid[i].scheme,
            bench::cyc(before),
            bench::cyc(after),
            TextTable::pct(100.0 * (after - before) / before, 1),
        });
    }
    table.print(std::cout);

    std::cout << "\nExpected shape (paper): excluding lock tests "
                 "leaves Dir0B essentially\nunchanged but improves "
                 "Dir1NB by roughly a factor of 2-3 (0.32 -> 0.12\n"
                 "in the paper), because locks ping-pong between "
                 "spinning caches when a\nblock may live in only one "
                 "cache.\n";
    return 0;
}
