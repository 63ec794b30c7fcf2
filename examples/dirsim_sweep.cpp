/**
 * @file
 * Example: `dirsim_sweep` — run, resume, inspect, and report
 * parameter sweeps described by JSON specs (docs/sweep.md).
 *
 * Usage:
 *   dirsim_sweep run <spec.json> [--out DIR] [--jobs N]
 *                    [--max-cells K] [--force]
 *   dirsim_sweep resume <spec.json> [--out DIR] [--jobs N]
 *   dirsim_sweep plan <spec.json>
 *   dirsim_sweep report <DIR | results.jsonl>
 *
 * `plan` lints the spec first (lintSweepSpec()): a spec with any
 * problem prints every diagnostic and the count and exits 1. A clean
 * spec prints its cells. `run` and `resume` accept exactly the specs
 * `plan` passes, and stop on the first problem.
 *
 * `run` executes the sweep with a FileCellCache at <out>/cells, so
 * every finished cell persists immediately; on completion the
 * artifacts land in <out>/results.jsonl. An interrupted run (the
 * --max-cells budget, Ctrl-C before results were written) is resumed
 * by running the same spec against the same --out directory —
 * `resume` is a readability alias for exactly that. Finished cells
 * replay from the cache (`runner.cache.hits`) and only the remainder
 * simulates. --force clears the cache first for a from-scratch run.
 *
 * `--max-cells K` stops dispatching new cells after K cells have
 * been *simulated* (cache hits are free) and exits with status 3 —
 * the deterministic stand-in for an interrupt, used by the tier-1
 * resume smoke test.
 *
 * `report` prints every paper view (sim/report.hh) whose schemes the
 * sweep holds from its artifacts — no wall-clock fields,
 * so an interrupted-then-resumed sweep reports byte-identically to
 * an uninterrupted one.
 *
 * Exit status: 0 done, 1 `plan` found problems, 2 usage errors, 3
 * interrupted (budget).
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dirsim/dirsim.hh"

namespace
{

using namespace dirsim;

/** Parsed command line after the subcommand. */
struct SweepCliArgs
{
    std::string spec;
    std::string out;
    unsigned jobs = 1;
    std::uint64_t maxCells = 0;
    bool force = false;
};

int
usage()
{
    std::cerr
        << "usage: dirsim_sweep run <spec.json> [--out DIR] "
           "[--jobs N] [--max-cells K] [--force]\n"
           "       dirsim_sweep resume <spec.json> [--out DIR] "
           "[--jobs N]\n"
           "       dirsim_sweep plan <spec.json>\n"
           "       dirsim_sweep report <DIR | results.jsonl>\n";
    return 2;
}

SweepCliArgs
parseArgs(const std::vector<std::string> &args)
{
    SweepCliArgs parsed;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto next = [&]() -> const std::string & {
            fatalIf(i + 1 >= args.size(), "option ", arg,
                    " needs a value");
            return args[++i];
        };
        if (arg == "--out") {
            parsed.out = next();
        } else if (arg == "--jobs") {
            parsed.jobs = static_cast<unsigned>(parseDecimal(
                next(), "--jobs", std::numeric_limits<unsigned>::max()));
        } else if (arg == "--max-cells") {
            parsed.maxCells = parseDecimal(next(), "--max-cells");
        } else if (arg == "--force") {
            parsed.force = true;
        } else if (!arg.empty() && arg[0] == '-') {
            fatal("unknown option '", arg, "'");
        } else {
            fatalIf(!parsed.spec.empty(),
                    "unexpected argument '", arg, "'");
            parsed.spec = arg;
        }
    }
    fatalIf(parsed.spec.empty(), "missing <spec.json>");
    return parsed;
}

int
planCommand(const SweepCliArgs &args)
{
    std::ifstream in(args.spec, std::ios::binary);
    fatalIf(!in, "cannot open sweep spec '", args.spec, "'");
    std::ostringstream text;
    text << in.rdbuf();
    const std::vector<SweepDiagnostic> diagnostics =
        lintSweepSpec(text.str());
    if (!diagnostics.empty()) {
        std::cout << args.spec << ": INVALID\n";
        for (const SweepDiagnostic &diagnostic : diagnostics)
            std::cerr << "error: " << diagnostic.where << ": "
                      << diagnostic.message << '\n';
        std::cerr << diagnostics.size() << " problem(s) found\n";
        return 1;
    }

    const SweepSpec spec = parseSweepSpec(text.str());
    const SweepPlan plan = expandSweep(spec);
    std::cout << "sweep " << spec.name << ": "
              << plan.cells.size() << " cells ("
              << plan.traces.size() << " traces x "
              << plan.schemes.size() << " schemes x "
              << spec.blockBytes.size() << " blocks x "
              << spec.geometries.size() << " geometries), ~"
              << TextTable::grouped(plan.targetCellRefs())
              << " generated refs\n\n";
    TextTable table({"cell", "scheme", "block", "geometry"});
    for (const SweepCell &cell : plan.cells)
        table.addRow({cell.label, cell.scheme.name(),
                      std::to_string(cell.blockBytes),
                      cell.geometry.label()});
    table.print(std::cout);
    return 0;
}

int
runCommand(const SweepCliArgs &args)
{
    const SweepSpec spec = loadSweepSpec(args.spec);
    const SweepPlan plan = expandSweep(spec);

    const std::filesystem::path out = args.out.empty()
        ? std::filesystem::path(spec.name + ".sweep")
        : std::filesystem::path(args.out);
    const std::filesystem::path cache_dir = out / "cells";
    if (args.force)
        std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(out);

    SweepOptions options;
    options.jobs = args.jobs;
    options.cache =
        std::make_shared<FileCellCache>(cache_dir.string());
    options.maxSimulatedCells = args.maxCells;
    options.onProgress = [&](const GridProgress &progress) {
        std::cerr << "[" << progress.completedCells << "/"
                  << progress.totalCells << "] "
                  << progress.cell.traceName << " "
                  << progress.cell.scheme
                  << (progress.cell.cacheHit ? " (cached)" : "")
                  << '\n';
    };

    const SweepOutcome outcome = runSweep(plan, options);
    if (!outcome.completed) {
        std::cerr << "sweep " << spec.name << " interrupted: "
                  << outcome.records.size() << "/"
                  << plan.cells.size()
                  << " cells finished; finished cells are cached "
                     "under "
                  << cache_dir.string()
                  << "\nresume with: dirsim_sweep resume "
                  << args.spec << " --out " << out.string() << '\n';
        return 3;
    }

    const std::filesystem::path results = out / "results.jsonl";
    JsonlSink sink(results.string());
    writeSweepArtifacts(outcome, sink);
    std::cout << "sweep " << spec.name << ": "
              << outcome.records.size() << " cells ("
              << outcome.cacheHits << " cached, "
              << outcome.cacheMisses << " simulated) -> "
              << results.string() << '\n';
    return 0;
}

int
reportCommand(const std::string &target)
{
    std::filesystem::path path(target);
    if (std::filesystem::is_directory(path))
        path /= "results.jsonl";
    const RunArtifacts artifacts = loadArtifacts(path.string());
    const std::vector<SchemeResults> grid =
        toSchemeResults(artifacts.cells);
    fatalIf(grid.empty(), "'", path.string(),
            "' holds no cell records");

    // Deterministic fields only: two runs of the same finished sweep
    // (interrupted + resumed or not) print byte-identical reports.
    std::cout << "sweep cells: " << artifacts.cells.size() << "\n\n";
    for (const ReportView &view : reportViews())
        printView(std::cout, view, grid);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    const std::string &command = args[0];
    const std::vector<std::string> rest(args.begin() + 1,
                                        args.end());
    try {
        if (command == "plan")
            return planCommand(parseArgs(rest));
        if (command == "run" || command == "resume")
            return runCommand(parseArgs(rest));
        if (command == "report" && rest.size() == 1)
            return reportCommand(rest[0]);
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    } catch (const std::exception &error) {
        // A filesystem or system error: a diagnostic, not a crash.
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    }
    return usage();
}
