/**
 * @file
 * Example: a command-line utility for working with trace files —
 * generate, convert between the binary and text formats, filter,
 * characterize, and simulate. External traces in the same
 * (cpu, pid, type, addr) shape can be analysed the same way.
 *
 * Usage:
 *   trace_tool generate <workload> <refs> <seed> <out>
 *   trace_tool convert  <in> <out>
 *   trace_tool filter   (--no-locks|--no-spins|--user-only) <in> <out>
 *   trace_tool stats    <in>
 *   trace_tool simulate <in> <scheme>
 *
 * Files ending in ".txt" use the text format; everything else is the
 * binary format.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "dirsim/dirsim.hh"

namespace
{

using namespace dirsim;

bool
isTextPath(const std::string &path)
{
    return path.size() >= 4
        && path.compare(path.size() - 4, 4, ".txt") == 0;
}

Trace
load(const std::string &path)
{
    return isTextPath(path) ? readTextTraceFile(path)
                            : readBinaryTraceFile(path);
}

void
store(const Trace &trace, const std::string &path)
{
    if (isTextPath(path))
        writeTextTraceFile(trace, path);
    else
        writeBinaryTraceFile(trace, path);
}

int
usage()
{
    std::cerr <<
        "usage:\n"
        "  trace_tool generate <workload> <refs> <seed> <out>\n"
        "  trace_tool convert  <in> <out>\n"
        "  trace_tool filter   (--no-locks|--no-spins|--user-only) "
        "<in> <out>\n"
        "  trace_tool stats    <in>\n"
        "  trace_tool simulate <in> <scheme>\n";
    return 2;
}

void
printStats(const Trace &trace)
{
    const TraceStats stats = computeTraceStats(trace);
    TextTable table({"metric", "value"});
    table.addRow({"name", stats.name});
    table.addRow({"refs", TextTable::grouped(stats.refs)});
    table.addRow({"instr", TextTable::grouped(stats.instr)});
    table.addRow({"data reads", TextTable::grouped(stats.dataReads)});
    table.addRow({"data writes",
                  TextTable::grouped(stats.dataWrites)});
    table.addRow({"system refs", TextTable::grouped(stats.sys)});
    table.addRow({"processes",
                  TextTable::grouped(stats.numProcesses)});
    table.addRow({"cpus", std::to_string(trace.numCpus())});
    table.addRow({"read/write ratio",
                  TextTable::fixed(stats.readWriteRatio(), 2)});
    table.addRow({"spin reads / reads",
                  TextTable::fixed(stats.spinReadFraction(), 3)});
    table.addRow({"shared block fraction",
                  TextTable::fixed(stats.sharedBlockFraction(), 3)});
    table.print(std::cout);

    // For traces produced by the synthetic generator, break the
    // references down by address segment.
    const SegmentProfile profile = profileSegments(trace);
    if (profile.count(SegmentKind::Unknown) != profile.total) {
        std::cout << "\nreferences by segment:\n";
        TextTable segments({"segment", "refs", "fraction"});
        for (int k = 0; k <= static_cast<int>(SegmentKind::Unknown);
             ++k) {
            const auto kind = static_cast<SegmentKind>(k);
            if (profile.count(kind) == 0)
                continue;
            segments.addRow({
                toString(kind),
                TextTable::grouped(profile.count(kind)),
                TextTable::fixed(profile.fraction(kind), 3),
            });
        }
        segments.print(std::cout);
    }
}

void
simulate(const std::string &path, const std::string &scheme)
{
    // One streaming read decodes the file (about 9 bytes per record
    // stay in memory); the decoded stream is then simulated.
    const SimResult result =
        runJob({TraceRef::file(path), parseScheme(scheme), {}}).result;
    const CycleBreakdown pipe = result.cost(paperPipelinedCosts());
    const CycleBreakdown nonpipe =
        result.cost(paperNonPipelinedCosts());
    std::cout << result.scheme << " on '" << result.traceName << "': "
              << TextTable::fixed(pipe.total(), 4)
              << " (pipelined) / "
              << TextTable::fixed(nonpipe.total(), 4)
              << " (non-pipelined) bus cycles per reference\n"
              << "read miss rate "
              << TextTable::pct(
                     result.events.percentOfRefs(EventType::RdMiss))
              << ", transactions/ref "
              << TextTable::fixed(pipe.transactions, 4) << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];

    try {
        if (command == "generate" && argc == 6) {
            const Trace trace = generateTrace(
                argv[2], std::strtoull(argv[3], nullptr, 10),
                std::strtoull(argv[4], nullptr, 10));
            store(trace, argv[5]);
            std::cout << "wrote " << trace.size() << " references to "
                      << argv[5] << '\n';
            return 0;
        }
        if (command == "convert" && argc == 4) {
            store(load(argv[2]), argv[3]);
            std::cout << "converted " << argv[2] << " -> " << argv[3]
                      << '\n';
            return 0;
        }
        if (command == "filter" && argc == 5) {
            const std::string mode = argv[2];
            const Trace input = load(argv[3]);
            Trace output;
            if (mode == "--no-locks")
                output = excludeLockRefs(input);
            else if (mode == "--no-spins")
                output = excludeSpinReads(input);
            else if (mode == "--user-only")
                output = keepUserOnly(input);
            else
                return usage();
            store(output, argv[4]);
            std::cout << "kept " << output.size() << " of "
                      << input.size() << " references\n";
            return 0;
        }
        if (command == "stats" && argc == 3) {
            printStats(load(argv[2]));
            return 0;
        }
        if (command == "simulate" && argc == 4) {
            simulate(argv[2], argv[3]);
            return 0;
        }
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    return usage();
}
