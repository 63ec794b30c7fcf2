/**
 * @file
 * Example: `dirsim_validate` — lint trace files before trusting a
 * simulation campaign to them.
 *
 * Streams each file through the validating readers (header sanity,
 * record-count/length consistency, per-record cpu/pid/type/flag
 * legality, binary-v2 checksum) in bounded memory, and prints the
 * Table 3 style TraceStats for every file that passes. Exit status:
 * 0 when every file is valid, 1 when any is rejected, 2 on usage
 * errors.
 *
 * Usage:
 *   dirsim_validate <trace-file> [<trace-file>...]
 *   dirsim_validate --manifest <results.jsonl>
 *   dirsim_validate --sweep <spec.json>
 *
 * Files ending in ".txt" are text traces; everything else is the
 * binary container (see docs/trace-format.md).
 *
 * With --manifest, the argument is a JSONL results file (see
 * docs/observability.md): every file-sourced trace recorded in the
 * run manifest is re-checksummed on disk with the trace-format-v2
 * FNV-1a and compared against the manifest — catching traces that
 * were moved, truncated, or regenerated since the run.
 *
 * With --sweep, the argument is a sweep spec (docs/sweep.md) and the
 * exhaustive linter runs: unknown scheme names, empty axes, cache
 * counts past the trace format's u16 cpu ids, impossible geometries,
 * and axis repeats that would expand into duplicate cells are ALL
 * reported (not just the first), mirroring the trace-lint mode's
 * exit codes.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
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

void
printStats(const TraceStats &stats)
{
    TextTable table({"metric", "value"});
    table.addRow({"name", stats.name});
    table.addRow({"cpus", std::to_string(stats.numCpus)});
    table.addRow({"processes", TextTable::grouped(stats.numProcesses)});
    table.addRow({"refs", TextTable::grouped(stats.refs)});
    table.addRow({"instr", TextTable::grouped(stats.instr)});
    table.addRow({"data reads", TextTable::grouped(stats.dataReads)});
    table.addRow({"data writes", TextTable::grouped(stats.dataWrites)});
    table.addRow({"user refs", TextTable::grouped(stats.user)});
    table.addRow({"system refs", TextTable::grouped(stats.sys)});
    table.addRow({"lock spin reads",
                  TextTable::grouped(stats.lockSpinReads)});
    table.addRow({"lock writes", TextTable::grouped(stats.lockWrites)});
    table.addRow({"data blocks", TextTable::grouped(stats.dataBlocks)});
    table.addRow({"shared data blocks",
                  TextTable::grouped(stats.sharedDataBlocks)});
    table.addRow({"read/write ratio",
                  TextTable::fixed(stats.readWriteRatio(), 2)});
    table.addRow({"spin reads / reads",
                  TextTable::fixed(stats.spinReadFraction(), 3)});
    table.addRow({"system fraction",
                  TextTable::fixed(stats.systemFraction(), 3)});
    table.addRow({"shared block fraction",
                  TextTable::fixed(stats.sharedBlockFraction(), 3)});
    table.print(std::cout);
}

/** Validate one file; returns true when it is clean. */
bool
validate(const std::string &path)
{
    try {
        // Concrete readers (not openTraceSource) so the report can
        // name the container version.
        std::unique_ptr<TraceSource> source;
        if (isTextPath(path))
            source = std::make_unique<TextTraceReader>(path);
        else
            source = std::make_unique<BinaryTraceReader>(path);

        // computeTraceStats() drains the source, which runs every
        // record-level check and the v2 checksum verification.
        const TraceStats stats = computeTraceStats(*source);

        std::cout << path << ": OK (" << source->format() << ", "
                  << TextTable::grouped(stats.refs) << " records)\n";
        printStats(stats);
        std::cout << '\n';
        return true;
    } catch (const SimulationError &error) {
        std::cout << path << ": INVALID\n";
        std::cerr << "error: " << error.what() << '\n';
        return false;
    }
}

/** Cross-check a results manifest's trace checksums against disk. */
bool
checkManifest(const std::string &results_path)
{
    const RunArtifacts artifacts = loadArtifacts(results_path);
    if (!artifacts.hasManifest) {
        std::cerr << "error: '" << results_path
                  << "' holds no run manifest\n";
        return false;
    }
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
            const std::uint64_t on_disk =
                fileChecksumFnv64(trace.path);
            if (on_disk == trace.checksum) {
                std::cout << trace.name << ": OK (" << trace.path
                          << ")\n";
            } else {
                std::cout << trace.name << ": MISMATCH ("
                          << trace.path
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
    return all_ok;
}

/** Lint a sweep spec, reporting every problem found. */
bool
checkSweepSpec(const std::string &spec_path)
{
    std::ifstream in(spec_path, std::ios::binary);
    if (!in) {
        std::cerr << "error: cannot open sweep spec '" << spec_path
                  << "'\n";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();

    const std::vector<SweepDiagnostic> diagnostics =
        lintSweepSpec(text.str());
    if (diagnostics.empty()) {
        const SweepPlan plan =
            expandSweep(parseSweepSpec(text.str()));
        std::cout << spec_path << ": OK (" << plan.cells.size()
                  << " cells: " << plan.traces.size()
                  << " traces x " << plan.schemes.size()
                  << " schemes x "
                  << plan.spec.blockBytes.size() << " blocks x "
                  << plan.spec.geometries.size()
                  << " geometries)\n";
        return true;
    }
    std::cout << spec_path << ": INVALID\n";
    for (const SweepDiagnostic &diagnostic : diagnostics)
        std::cerr << "error: " << diagnostic.where << ": "
                  << diagnostic.message << '\n';
    std::cerr << diagnostics.size() << " problem(s) found\n";
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 2 && args[0] == "--manifest") {
        try {
            return checkManifest(args[1]) ? 0 : 1;
        } catch (const SimulationError &error) {
            std::cerr << "error: " << error.what() << '\n';
            return 2;
        }
    }
    if (args.size() == 2 && args[0] == "--sweep") {
        try {
            return checkSweepSpec(args[1]) ? 0 : 1;
        } catch (const SimulationError &error) {
            std::cerr << "error: " << error.what() << '\n';
            return 2;
        }
    }
    if (args.empty() || args[0] == "--manifest"
        || args[0] == "--sweep") {
        std::cerr << "usage: dirsim_validate <trace-file> "
                     "[<trace-file>...]\n"
                     "       dirsim_validate --manifest "
                     "<results.jsonl>\n"
                     "       dirsim_validate --sweep "
                     "<spec.json>\n";
        return 2;
    }
    bool all_ok = true;
    for (const std::string &path : args)
        all_ok = validate(path) && all_ok;
    return all_ok ? 0 : 1;
}
