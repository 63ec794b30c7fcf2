/**
 * @file
 * Extension: block-size ablation. The paper fixes 4-word (16-byte)
 * blocks; here the block size is swept. Larger blocks raise the
 * per-miss transfer cost and introduce false sharing (the generator
 * places locks 16 bytes apart, so 64-byte blocks start to co-locate
 * independent lock words and migratory data).
 */

#include <iostream>

#include "common/bench_common.hh"

int
main()
{
    using namespace dirsim;
    bench::banner("Extension: block size",
                  "Bus cycles per reference vs block size "
                  "(pipelined bus)");

    TextTable table({"block", "scheme", "cycles/ref", "rd-miss%",
                     "fig1<=1"});
    for (const unsigned block_bytes : {4u, 8u, 16u, 32u, 64u}) {
        const BusCosts costs = deriveBusCosts(
            paperBusTiming(), BusKind::Pipelined,
            block_bytes / busWordBytes);
        SimConfig config;
        config.blockBytes = block_bytes;

        for (const char *scheme : {"Dir0B", "Dragon"}) {
            std::vector<CycleBreakdown> costs_per_trace;
            double miss = 0.0;
            double fig1 = 0.0;
            for (const auto &trace : bench::suite()) {
                const SimResult result =
                    simulateTrace(trace, parseScheme(scheme), config);
                costs_per_trace.push_back(
                    costFromOps(result.ops, result.totalRefs, costs));
                miss += result.freqs().get(EventType::RdMiss);
                fig1 += result.cleanWriteHolders.fractionAtMost(1);
            }
            const CycleBreakdown avg =
                averageBreakdowns(costs_per_trace);
            const double n =
                static_cast<double>(bench::suite().size());
            table.addRow({
                std::to_string(block_bytes) + "B",
                scheme,
                cyc(avg.total()),
                pct(miss / n),
                TextTable::fixed(fig1 / n, 3),
            });
        }
        table.addRule();
    }
    table.print(std::cout);

    std::cout << "\nReading guide: small blocks trade more misses "
                 "for cheaper transfers.\nCoarser blocks coalesce "
                 "lock words with their migratory payload (fewer,\n"
                 "larger transfers) but false-share unrelated data: "
                 "the coherence\nread-miss rate stops falling with "
                 "block size even though compulsory\nmisses keep "
                 "shrinking.\n";
    return 0;
}
