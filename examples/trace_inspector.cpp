/**
 * @file
 * Example: characterize a trace and show how each coherence scheme
 * behaves on it.
 *
 * Usage: trace_inspector [workload|trace-file] [refs] [seed]
 *   workload    pops | thor | pero (default pops), generated with
 *               refs (default 500000) and seed (default 1); or
 *   trace-file  a path to a trace written by trace_tool (".txt" =
 *               text, else binary)
 *
 * Prints the Table 3 style trace characteristics, the Table 4 style
 * event frequencies for every implemented scheme, and the bus-cycle
 * costs on both bus models. File inputs are read twice through the
 * streaming TraceSource API (trace/reader.hh): once record by record
 * for the characteristics, then once into a decoded stream
 * (sim/decoded.hh) that every scheme simulates. The integrity line
 * reports the container format — for binary v2, the trailing FNV-1a
 * checksum is verified as each pass drains the file.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "dirsim/dirsim.hh"

namespace
{

void
printTraceStats(const dirsim::TraceStats &stats)
{
    using dirsim::TextTable;
    TextTable table({"metric", "value"});
    table.addRow({"refs", TextTable::grouped(stats.refs)});
    table.addRow({"instr", TextTable::grouped(stats.instr)});
    table.addRow({"data reads", TextTable::grouped(stats.dataReads)});
    table.addRow({"data writes", TextTable::grouped(stats.dataWrites)});
    table.addRow({"user", TextTable::grouped(stats.user)});
    table.addRow({"system", TextTable::grouped(stats.sys)});
    table.addRow({"processes", TextTable::grouped(stats.numProcesses)});
    table.addRow({"read/write ratio",
                  TextTable::fixed(stats.readWriteRatio(), 2)});
    table.addRow({"spin reads / reads",
                  TextTable::fixed(stats.spinReadFraction(), 3)});
    table.addRow({"system fraction",
                  TextTable::fixed(stats.systemFraction(), 3)});
    table.addRow({"shared data blocks",
                  TextTable::fixed(stats.sharedBlockFraction(), 3)});
    table.print(std::cout);
}

/** What the container format guarantees about input integrity. */
const char *
integrityNote(const std::string &format)
{
    if (format == "binary v2")
        return "trailing FNV-1a checksum verified on every pass";
    if (format == "binary v1")
        return "structural validation only (no checksum; rewrite "
               "with trace_tool for v2)";
    return "per-line validation (text format has no checksum)";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string input = argc > 1 ? argv[1] : "pops";
    const std::uint64_t refs =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 500'000;
    const std::uint64_t seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

    using namespace dirsim;
    try {
        // A path that opens as a file is streamed; anything else is
        // a workload name for the generator.
        const bool file_mode = std::ifstream(input).good();

        const std::vector<std::string> schemes = allSchemes();
        std::vector<SimResult> results;
        results.reserve(schemes.size());
        TraceStats stats;

        if (file_mode) {
            const auto source = openTraceSource(input);
            std::cout << "=== trace characteristics: "
                      << source->name() << " (" << source->format()
                      << ") ===\n";
            std::cout << "integrity: "
                      << integrityNote(source->format()) << '\n';
            stats = computeTraceStats(*source);
            printTraceStats(stats);

            // One decode serves every scheme.
            const SimConfig sim;
            const DecodedTrace decoded =
                decodeTraceFile(input, sim.blockBytes, sim.sharing);
            for (const auto &scheme : schemes)
                results.push_back(
                    simulateTrace(decoded, parseScheme(scheme), sim));
        } else {
            const Trace trace = generateTrace(input, refs, seed);
            std::cout << "=== trace characteristics: " << trace.name()
                      << " ===\n";
            stats = computeTraceStats(trace);
            printTraceStats(stats);
            for (const auto &scheme : schemes)
                results.push_back(
                    simulateTrace(trace, parseScheme(scheme)));
        }

        std::cout
            << "\n=== event frequencies (% of all references) ===\n";
        TextTable freq_table([&] {
            std::vector<std::string> header{"event"};
            for (const auto &scheme : schemes)
                header.push_back(scheme);
            return header;
        }());

        for (std::size_t e = 0; e < numEventTypes; ++e) {
            const auto event = static_cast<EventType>(e);
            std::vector<std::string> row{toString(event)};
            for (const auto &result : results)
                row.push_back(TextTable::fixed(
                    result.events.percentOfRefs(event), 3));
            freq_table.addRow(row);
        }
        freq_table.print(std::cout);

        std::cout << "\n=== bus cycles per memory reference ===\n";
        TextTable cost_table(
            {"scheme", "pipelined", "non-pipelined", "txns/ref",
             "fig1<=1"});
        for (const auto &result : results) {
            const auto pipe = result.cost(paperPipelinedCosts());
            const auto nonpipe = result.cost(paperNonPipelinedCosts());
            cost_table.addRow({
                result.scheme,
                TextTable::fixed(pipe.total(), 4),
                TextTable::fixed(nonpipe.total(), 4),
                TextTable::fixed(pipe.transactions, 4),
                TextTable::fixed(
                    result.cleanWriteHolders.fractionAtMost(1), 3),
            });
        }
        cost_table.print(std::cout);

        // Figure 1 view: distribution of the number of other caches
        // holding a previously-clean block when it is written (Dir0B).
        const SimResult &dir0b = results[2];
        std::cout << "\n=== invalidations on writes to clean blocks "
                     "(Dir0B) ===\n";
        TextTable hist_table({"other holders", "fraction"});
        const auto &hist = dir0b.cleanWriteHolders;
        for (std::uint64_t v = 0; v <= hist.maxValue(); ++v)
            hist_table.addRow({std::to_string(v),
                               TextTable::fixed(hist.fraction(v), 4)});
        hist_table.print(std::cout);
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    return 0;
}
