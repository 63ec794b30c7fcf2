/**
 * @file
 * Example: `dirsim_report` — re-render the paper's views from a JSONL
 * results file, or diff two runs.
 *
 * Rendering consumes the structured artifacts a run wrote through
 * JsonlSink (obs/sink.hh) and prints every sim/report view whose
 * schemes the run holds through printView(), the function the `repro`
 * driver prints them with, so each section is byte-identical to what
 * the run itself printed — the artifacts lose nothing.
 *
 * Usage:
 *   dirsim_report <results.jsonl>             render the report
 *   dirsim_report --diff <a.jsonl> <b.jsonl>  compare two runs
 *   dirsim_report --diff-clean <a.jsonl> <b.jsonl>
 *                       assert a clean diff (for scripts/CI: same
 *                       comparison, but a one-line verdict instead
 *                       of the report-style table)
 *
 * Diffing compares the deterministic metrics of every cell present
 * in either run (event/op counters, the Figure 1 histogram, derived
 * costs under both bus models) and ignores wall-clock fields, so two
 * runs of the same experiment always diff clean. Exit status: 0 on a
 * rendered report or a clean diff, 1 when the diff found deltas, 2
 * on usage errors.
 */

#include <iostream>
#include <string>
#include <vector>

#include "dirsim/dirsim.hh"

namespace
{

using namespace dirsim;

void
printManifest(const RunManifest &manifest)
{
    std::cout << "run: started " << manifest.startedAt
              << ", finished " << manifest.finishedAt << ", host "
              << (manifest.host.empty() ? "?" : manifest.host)
              << ", jobs " << manifest.jobs << '\n';
    std::cout << "config: block " << manifest.blockBytes
              << " B, sharing by " << manifest.sharing
              << ", warmup " << manifest.warmupRefs << " refs\n";
    for (const TraceProvenance &trace : manifest.traces) {
        std::cout << "trace " << trace.name << ": "
                  << TextTable::grouped(trace.records) << " records, "
                  << trace.caches << " caches, source "
                  << trace.source;
        if (!trace.path.empty())
            std::cout << " (" << trace.path << ")";
        std::cout << '\n';
    }
    for (const auto &[name, value] : manifest.env)
        std::cout << "env " << name << "=" << value << '\n';
    std::cout << '\n';
}

/** The tracer's write-run-length distribution, when the run was
 *  traced (DIRSIM_TRACE_SAMPLE; obs/tracer.hh). */
void
renderWriteRunLengths(const RunArtifacts &artifacts)
{
    const std::string prefix = "trace.dist.write_run_length";
    if (!artifacts.hasMetrics
        || !artifacts.metrics.has(prefix + ".samples"))
        return;
    const MetricRegistry &metrics = artifacts.metrics;
    const std::uint64_t samples = metrics.counter(prefix + ".samples");
    if (samples == 0)
        return;
    std::cout << "\nTracer: write-run length (consecutive writes by "
                 "one cache before a handoff; "
              << TextTable::grouped(samples) << " samples)\n";
    TextTable table({"value", "count", "fraction"});
    const auto row = [&](const std::string &label,
                         std::uint64_t count) {
        table.addRow({label, TextTable::grouped(count),
                      TextTable::fixed(static_cast<double>(count)
                                           / static_cast<double>(
                                               samples),
                                       4)});
    };
    for (std::size_t v = 0; v < traceDistBuckets; ++v) {
        const std::string key = prefix + "." + std::to_string(v);
        if (metrics.has(key))
            row(std::to_string(v), metrics.counter(key));
    }
    if (metrics.has(prefix + ".overflow"))
        row(">=" + std::to_string(traceDistBuckets),
            metrics.counter(prefix + ".overflow"));
    table.print(std::cout);
}

int
render(const std::string &path)
{
    const RunArtifacts artifacts = loadArtifacts(path);
    if (artifacts.hasManifest)
        printManifest(artifacts.manifest);

    const std::vector<SchemeResults> grid =
        toSchemeResults(artifacts.cells);
    fatalIf(grid.empty(), "'", path, "' holds no cell records");

    // Every paper view whose schemes the run holds, in paper order.
    for (const ReportView &view : reportViews())
        printView(std::cout, view, grid);

    // Per-cell execution metadata the text reports never had.
    std::cout << "Execution: wall time and phase split per cell\n";
    TextTable timing({"scheme", "trace", "refs", "wall s", "refs/s",
                      "read ms", "warmup ms", "simulate ms",
                      "reduce ms"});
    const auto ms = [](std::uint64_t ns) {
        return TextTable::fixed(static_cast<double>(ns) / 1e6, 2);
    };
    for (const CellRecord &cell : artifacts.cells) {
        timing.addRow(
            {cell.scheme, cell.trace,
             TextTable::grouped(cell.totalRefs),
             TextTable::fixed(cell.wallSeconds, 3),
             TextTable::grouped(static_cast<std::uint64_t>(
                 cell.refsPerSecond())),
             ms(cell.phases.get(Phase::Read)),
             ms(cell.phases.get(Phase::Warmup)),
             ms(cell.phases.get(Phase::Simulate)),
             ms(cell.phases.get(Phase::Reduce))});
    }
    timing.print(std::cout);

    renderWriteRunLengths(artifacts);
    return 0;
}

/** --diff-clean: the scriptable assertion form. */
int
diffClean(const std::string &path_a, const std::string &path_b)
{
    const RunArtifacts a = loadArtifacts(path_a);
    const RunArtifacts b = loadArtifacts(path_b);
    const std::vector<MetricDelta> deltas = diffArtifacts(a, b);
    if (deltas.empty()) {
        std::cout << "diff clean: " << a.cells.size()
                  << " cell(s)\n";
        return 0;
    }
    std::cerr << "diff NOT clean: " << deltas.size()
              << " delta(s); first: "
              << (deltas[0].cell.empty() ? "<run>" : deltas[0].cell)
              << " " << deltas[0].metric << " " << deltas[0].a
              << " != " << deltas[0].b << '\n';
    return 1;
}

int
diff(const std::string &path_a, const std::string &path_b)
{
    const RunArtifacts a = loadArtifacts(path_a);
    const RunArtifacts b = loadArtifacts(path_b);
    const std::vector<MetricDelta> deltas = diffArtifacts(a, b);
    if (deltas.empty()) {
        std::cout << "no deltas: " << a.cells.size()
                  << " cells match across all deterministic "
                     "metrics\n";
        return 0;
    }
    TextTable table({"cell", "metric", path_a, path_b});
    for (const MetricDelta &delta : deltas)
        table.addRow({delta.cell, delta.metric, delta.a, delta.b});
    table.print(std::cout);
    std::cout << deltas.size() << " delta(s)\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 1 && args[0] != "--diff")
            return render(args[0]);
        if (args.size() == 3 && args[0] == "--diff")
            return diff(args[1], args[2]);
        if (args.size() == 3 && args[0] == "--diff-clean")
            return diffClean(args[1], args[2]);
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    }
    std::cerr << "usage: dirsim_report <results.jsonl>\n"
                 "       dirsim_report --diff <a.jsonl> <b.jsonl>\n"
                 "       dirsim_report --diff-clean <a.jsonl> "
                 "<b.jsonl>\n";
    return 2;
}
