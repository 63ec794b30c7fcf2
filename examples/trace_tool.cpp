/**
 * @file
 * Example: `trace_tool` — the trace CLI. It generates, converts and
 * filters trace files, characterizes them (Table 3), replays them
 * under any schemes (the paper's grid views) and checks a run's
 * trace files against its manifest. External traces in the same
 * (cpu, pid, type, addr) shape are analysed the same way.
 *
 * Usage:
 *   trace_tool generate <workload> <refs> <seed> <out>
 *   trace_tool convert  <in> <out>
 *   trace_tool filter   (--no-locks|--no-spins|--user-only) <in> <out>
 *   trace_tool stats    <file>...
 *   trace_tool simulate <file> [scheme...]
 *   trace_tool verify   <results.jsonl>
 *
 * Files ending in ".txt" use the text format; everything else is the
 * binary format (see docs/trace-format.md).
 *
 * `stats` streams each file through the validating readers in
 * bounded memory, so every record is checked and a binary v2
 * checksum verified, and prints one Table 3 over the valid files and
 * their references by address segment. `simulate` decodes the file
 * once, runs every named scheme (default: every named scheme dirsim
 * implements) under SimConfig::fromEnvironment() (DIRSIM_BLOCK_BYTES,
 * DIRSIM_WARMUP_REFS, DIRSIM_SHARING), and prints every paper view
 * (sim/report.hh) the grid holds. `verify` re-checksums every
 * file-sourced trace a results manifest records (docs/observability.md)
 * and reports each as OK, MISMATCH or MISSING.
 *
 * Exit status: 0 on success; 1 when a file is rejected, a manifest
 * check finds a problem or a command fails; 2 on usage errors.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "dirsim/dirsim.hh"

namespace
{

using namespace dirsim;

int
usage()
{
    std::cerr <<
        "usage:\n"
        "  trace_tool generate <workload> <refs> <seed> <out>\n"
        "  trace_tool convert  <in> <out>\n"
        "  trace_tool filter   (--no-locks|--no-spins|--user-only) "
        "<in> <out>\n"
        "  trace_tool stats    <file>...\n"
        "  trace_tool simulate <file> [scheme...]\n"
        "  trace_tool verify   <results.jsonl>\n";
    return 2;
}

int
generate(const std::vector<std::string> &operands)
{
    std::uint64_t refs = 0;
    std::uint64_t seed = 0;
    try {
        refs = parseDecimal(operands[1], "<refs>");
        seed = parseDecimal(operands[2], "<seed>");
    } catch (const UsageError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return usage();
    }
    const Trace trace = generateTrace(operands[0], refs, seed);
    writeTraceFile(trace, operands[3]);
    std::cout << "wrote " << trace.size() << " references to "
              << operands[3] << '\n';
    return 0;
}

int
filter(const std::vector<std::string> &operands)
{
    const std::string &mode = operands[0];
    Trace (*keep)(const Trace &) = nullptr;
    if (mode == "--no-locks")
        keep = excludeLockRefs;
    else if (mode == "--no-spins")
        keep = excludeSpinReads;
    else if (mode == "--user-only")
        keep = keepUserOnly;
    else
        return usage();
    const Trace input = readTraceFile(operands[1]);
    const Trace output = keep(input);
    writeTraceFile(output, operands[2]);
    std::cout << "kept " << output.size() << " of " << input.size()
              << " references\n";
    return 0;
}

/** References by address segment, one column per trace; nothing
 *  when no trace holds a generator address. */
void
printSegments(const std::vector<TraceStats> &traces,
              const std::vector<SegmentProfile> &profiles)
{
    const bool generated = std::any_of(
        profiles.begin(), profiles.end(), [](const SegmentProfile &p) {
            return p.count(SegmentKind::Unknown) != p.total;
        });
    if (!generated)
        return;
    std::vector<std::string> header{"segment"};
    for (const TraceStats &stats : traces)
        header.push_back(stats.name);
    TextTable table(std::move(header));
    for (int k = 0; k <= static_cast<int>(SegmentKind::Unknown); ++k) {
        const auto kind = static_cast<SegmentKind>(k);
        std::vector<std::string> row{toString(kind)};
        bool any = false;
        for (const SegmentProfile &profile : profiles) {
            any = any || profile.count(kind) != 0;
            row.push_back(TextTable::grouped(profile.count(kind)) + " ("
                          + TextTable::fixed(profile.fraction(kind), 3)
                          + ")");
        }
        if (any)
            table.addRow(std::move(row));
    }
    std::cout << "\nreferences by segment (fraction of the trace):\n";
    table.print(std::cout);
}

int
stats(const std::vector<std::string> &paths)
{
    std::vector<TraceStats> traces;
    std::vector<SegmentProfile> profiles;
    bool all_ok = true;
    for (const std::string &path : paths) {
        try {
            // Draining the source runs every record-level check and
            // the binary v2 checksum; one pass feeds both tables.
            const auto source = openTraceSource(path);
            TraceStatsBuilder builder;
            SegmentProfile profile;
            TraceRecord record;
            while (source->next(record)) {
                builder.add(record);
                profile.add(record.addr);
            }
            traces.push_back(
                builder.finish(source->name(), source->numCpus()));
            profiles.push_back(profile);
            std::cout << path << ": OK (" << source->format() << ", "
                      << TextTable::grouped(traces.back().refs)
                      << " records)\n";
        } catch (const SimulationError &error) {
            std::cout << path << ": INVALID\n";
            std::cerr << "error: " << error.what() << '\n';
            all_ok = false;
        }
    }
    if (!traces.empty()) {
        std::cout << "\nTable 3: summary of trace characteristics\n";
        traceStatsTable(traces).print(std::cout);
        printSegments(traces, profiles);
    }
    return all_ok ? 0 : 1;
}

int
simulate(const std::string &path, const std::vector<std::string> &names)
{
    const std::vector<SchemeSpec> schemes =
        parseSchemes(names.empty() ? allSchemes() : names);
    // One streaming read decodes the file; every cell replays it.
    const GridResult grid = ExperimentRunner().runFiles(
        schemes, {path}, SimConfig::fromEnvironment());
    const SimResult &cell = grid.schemes.front().perTrace.front();
    std::cout << "'" << cell.traceName << "' (" << path << "): "
              << TextTable::grouped(cell.totalRefs) << " references, "
              << cell.numCaches << " caches, " << schemes.size()
              << " scheme(s)\n\n";
    for (const ReportView &view : reportViews())
        printView(std::cout, view, grid.schemes);
    return 0;
}

/** Cross-check a results manifest's trace checksums against disk. */
int
verify(const std::string &results_path)
{
    const RunArtifacts artifacts = loadArtifacts(results_path);
    fatalIf(!artifacts.hasManifest, "'", results_path,
            "' holds no run manifest");
    bool all_ok = true;
    std::size_t checked = 0;
    for (const TraceProvenance &trace : artifacts.manifest.traces) {
        if (trace.source != "file" || !trace.hasChecksum) {
            std::cout << trace.name << ": SKIPPED (source '"
                      << trace.source << "', no file checksum)\n";
            continue;
        }
        ++checked;
        try {
            if (fileChecksumFnv64(trace.path) == trace.checksum) {
                std::cout << trace.name << ": OK (" << trace.path
                          << ")\n";
            } else {
                std::cout << trace.name << ": MISMATCH (" << trace.path
                          << " changed since the run)\n";
                all_ok = false;
            }
        } catch (const SimulationError &) {
            std::cout << trace.name << ": MISSING (" << trace.path
                      << " unreadable)\n";
            all_ok = false;
        }
    }
    std::cout << checked << " trace file(s) checked, "
              << (all_ok ? "all match" : "PROBLEMS FOUND") << '\n';
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    const std::string &command = args[0];
    const std::vector<std::string> operands(args.begin() + 1, args.end());

    try {
        if (command == "generate" && operands.size() == 4)
            return generate(operands);
        if (command == "convert" && operands.size() == 2) {
            writeTraceFile(readTraceFile(operands[0]), operands[1]);
            std::cout << "converted " << operands[0] << " -> "
                      << operands[1] << '\n';
            return 0;
        }
        if (command == "filter" && operands.size() == 3)
            return filter(operands);
        if (command == "stats" && !operands.empty())
            return stats(operands);
        if (command == "simulate" && !operands.empty())
            return simulate(operands[0], {operands.begin() + 1,
                                          operands.end()});
        if (command == "verify" && operands.size() == 1)
            return verify(operands[0]);
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    return usage();
}
