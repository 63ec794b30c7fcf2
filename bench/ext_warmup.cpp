/**
 * @file
 * Extension: how much of a (finite) trace's coherence cost is cold
 * sharing? The paper's methodology excludes the globally-first
 * reference to each block, but the first time a block becomes SHARED
 * (the second process's fetch) is still charged — on a short trace
 * this warm-up inflates the directory schemes' miss rates. This bench
 * sweeps the measurement warm-up window: the steady-state plateau is
 * the number a very long trace (like the paper's 3.2M-reference ATUM
 * traces) would report.
 */

#include <iostream>

#include "common/bench_common.hh"

int
main()
{
    using namespace dirsim;
    bench::banner("Extension: warm-up",
                  "Bus cycles per reference vs measurement warm-up "
                  "window (pipelined bus)");

    const BusCosts costs = paperPipelinedCosts();

    TextTable table({"warm-up", "Dir1NB", "Dir0B", "Dragon",
                     "Dir0B rm%"});
    for (const double fraction : {0.0, 0.1, 0.25, 0.5}) {
        std::vector<CycleBreakdown> dir1nb;
        std::vector<CycleBreakdown> dir0b;
        std::vector<CycleBreakdown> dragon;
        double miss = 0.0;
        for (const auto &trace : bench::suite()) {
            SimConfig config;
            config.warmupRefs = static_cast<std::uint64_t>(
                fraction * static_cast<double>(trace.size()));
            const SimResult r1 =
                simulateTrace(trace, parseScheme("Dir1NB"), config);
            const SimResult r0 =
                simulateTrace(trace, parseScheme("Dir0B"), config);
            const SimResult rd =
                simulateTrace(trace, parseScheme("Dragon"), config);
            dir1nb.push_back(r1.cost(costs));
            dir0b.push_back(r0.cost(costs));
            dragon.push_back(rd.cost(costs));
            miss += r0.freqs().get(EventType::RdMiss);
        }
        table.addRow({
            TextTable::pct(100.0 * fraction, 0),
            cyc(averageBreakdowns(dir1nb).total()),
            cyc(averageBreakdowns(dir0b).total()),
            cyc(averageBreakdowns(dragon).total()),
            pct(miss / 3.0),
        });
    }
    table.print(std::cout);

    const auto paper = [](const char *scheme) {
        return cyc(publishedScheme(scheme)->cyclesPerRef);
    };
    std::cout << "\nReading guide: costs fall and flatten as the "
                 "cold-sharing transient is\nexcluded; the plateau "
                 "approximates what the paper's longer traces\n"
                 "measured (paper: Dir1NB "
              << paper("Dir1NB") << ", Dir0B " << paper("Dir0B")
              << ", Dragon " << paper("Dragon") << ").\n";
    return 0;
}
