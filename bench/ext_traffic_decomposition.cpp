/**
 * @file
 * Extension: where do the bus cycles come from? Section 5.2 measures
 * the spin-lock share of Dir1NB's traffic by re-running the
 * simulation with lock references excluded; this bench generalizes
 * that subtraction method to all reference classes the trace can be
 * filtered by:
 *
 *   locks   = cost(full) - cost(without lock references)
 *   system  = cost(full) - cost(user-only references)
 *   rest    = cost of the doubly-filtered residue (application
 *             sharing + private write-backs etc.)
 *
 * The decomposition is approximate (removing one class changes the
 * interleaving of the rest), which is exactly the caveat the paper
 * notes for its own trace-driven method.
 */

#include <iostream>

#include "common/bench_common.hh"

int
main()
{
    using namespace dirsim;
    bench::banner("Extension: traffic decomposition",
                  "Per-class share of each scheme's bus cycles "
                  "(subtraction method, pipelined)");

    const BusCosts costs = paperPipelinedCosts();

    std::vector<Trace> no_locks;
    std::vector<Trace> user_only;
    for (const auto &trace : bench::suite()) {
        no_locks.push_back(excludeLockRefs(trace));
        user_only.push_back(keepUserOnly(trace));
    }

    const std::vector<SchemeSpec> schemes = parseSchemes(paperSchemes());
    const ExperimentRunner runner;
    const auto full_grid = runner.run(schemes, bench::suite()).schemes;
    const auto lockless_grid = runner.run(schemes, no_locks).schemes;
    const auto user_grid = runner.run(schemes, user_only).schemes;

    TextTable table({"scheme", "total", "locks", "system", "other",
                     "lock share"});
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const double full =
            full_grid[i].averagedCost(costs).total();
        const double without_locks =
            lockless_grid[i].averagedCost(costs).total();
        const double without_system =
            user_grid[i].averagedCost(costs).total();
        const double locks = std::max(0.0, full - without_locks);
        const double system = std::max(0.0, full - without_system);
        const double other = std::max(0.0, full - locks - system);
        table.addRow({
            schemes[i].name(),
            cyc(full),
            cyc(locks),
            cyc(system),
            cyc(other),
            TextTable::pct(100.0 * locks / full, 1),
        });
    }
    table.print(std::cout);

    std::cout << "\nReading guide: Dir1NB's lock share dwarfs every "
                 "other scheme's (the\nSection 5.2 result); the "
                 "broadcast/directory schemes spend most of "
                 "their\n(much smaller) budget on application sharing "
                 "and OS activity instead.\n";
    return 0;
}
