/**
 * @file
 * Extension: processor-scaling curves from the Section 5.1 system
 * model. The paper computes one point ("a bus with a cycle time of
 * 100ns will only yield a maximum performance of 15 effective
 * processors" for the best scheme); this bench draws the whole curve
 * for every scheme, with and without the fixed per-transaction
 * overhead q, using the M/D/1 bus-contention model.
 */

#include <iostream>

#include "bus/latency_model.hh"
#include "common/bench_common.hh"

int
main(int argc, char **argv)
{
    dirsim::bench::initArtifacts(argc, argv);
    using namespace dirsim;
    bench::banner("Extension: processor scaling",
                  "Effective processors and bus queueing vs machine "
                  "size (10 MIPS CPUs, 100ns bus)");

    const auto &grid = bench::paperGrid();
    const BusCosts costs = paperPipelinedCosts();

    std::cout << "Bus saturation points (effective processor "
                 "ceilings):\n";
    TextTable saturation({"scheme", "q=0", "q=1"});
    for (const auto &scheme : grid) {
        const CycleBreakdown cost = scheme.averagedCost(costs);
        SystemParams params;
        saturation.addRow({
            scheme.scheme,
            TextTable::fixed(saturationProcessors(cost, params), 1),
            [&] {
                SystemParams with_q = params;
                with_q.overheadQ = 1.0;
                return TextTable::fixed(
                    saturationProcessors(cost, with_q), 1);
            }(),
        });
    }
    saturation.print(std::cout);
    const std::string paper_processors =
        TextTable::fixed(published().estimateProcessors, 0);
    std::cout << "(paper: ~" << paper_processors
              << " for the best scheme at q=0)\n\n";

    TextTable table({"procs", "scheme", "bus util", "queue cyc",
                     "eff procs", "efficiency"});
    for (const unsigned procs : {4u, 8u, 16u, 32u, 64u}) {
        for (const auto &scheme : grid) {
            const CycleBreakdown cost = scheme.averagedCost(costs);
            SystemParams params;
            params.processors = procs;
            const SystemEstimate estimate =
                estimateSystem(cost, params);
            table.addRow({
                std::to_string(procs),
                scheme.scheme,
                TextTable::fixed(estimate.utilization, 3),
                estimate.offeredUtilization >= 1.0
                    ? std::string("saturated")
                    : TextTable::fixed(estimate.queueingDelayCycles,
                                       2),
                TextTable::fixed(estimate.effectiveProcessors, 1),
                TextTable::pct(100.0 * estimate.efficiency, 1),
            });
        }
        table.addRule();
    }
    table.print(std::cout);

    std::cout << "\nReading guide: the scheme ordering of Figure 2 "
                 "translates directly into\nhow many processors a "
                 "single bus can feed — the quantitative version of\n"
                 "the paper's argument that anything beyond ~"
              << paper_processors
              << "-20 processors needs the\ngeneral interconnection "
                 "network that only directory schemes support.\n";
    return 0;
}
