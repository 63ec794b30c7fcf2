/**
 * @file
 * Example: `dirsim_scaling` — the cache-count sweep.
 *
 * `run` simulates the scaling scheme grid (sim/scaling.hh) once per
 * cache count N, with the coherence event tracer attached, and writes
 * one JSONL artifacts file per N. `report` re-reads those artifacts
 * and renders the scalability curves the Section 6 debate is about:
 * bus cycles per reference, invalidation traffic and directory
 * storage per memory block as a function of N per scheme, plus, at
 * each machine size, the invalidation-size distribution of the
 * cells' Figure 1 counters and the write-run lengths the tracer
 * recorded.
 *
 * Usage:
 *   dirsim_scaling run <out_dir> [--invariants <period>]
 *   dirsim_scaling report <out_dir>
 *
 * Both modes sweep the cache counts of ScalingParams::fromEnvironment
 * (DIRSIM_SCALING_NS et al.), so a report must run under the same
 * DIRSIM_SCALING_* environment as the run that produced the
 * artifacts. The report renders only deterministic metrics — two runs
 * of the same sweep produce byte-identical reports (and diff clean
 * under `dirsim_report --diff` per N). Exit status: 0 on success, 2
 * on usage errors.
 */

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dirsim/dirsim.hh"

namespace
{

using namespace dirsim;

std::string
artifactPath(const std::string &out_dir, unsigned num_caches)
{
    return out_dir + "/scale" + std::to_string(num_caches) + ".jsonl";
}

/** Scheme names of the sweep, in grid order. */
std::vector<std::string>
schemeNames()
{
    std::vector<std::string> names;
    for (const SchemeSpec &spec : scalingSchemes())
        names.push_back(spec.name());
    return names;
}

int
run(const std::string &out_dir, std::uint64_t invariant_period)
{
    const ScalingParams params = ScalingParams::fromEnvironment();
    const std::vector<SchemeSpec> schemes = scalingSchemes();
    std::filesystem::create_directories(out_dir);

    SimConfig sim = SimConfig::fromEnvironment();
    sim.invariantCheckPeriod = invariant_period;

    // The tracer rides along on every run so the artifacts carry the
    // exact write-run-length distribution; DIRSIM_TRACE_SAMPLE only
    // thins the event timeline, never the distribution.
    TracerConfig tracer_config = TracerConfig::fromEnvironment();
    if (!tracer_config.enabled())
        tracer_config.samplePeriod = 4096;

    std::cout << "scaling sweep: " << schemes.size()
              << " schemes, N in {";
    for (std::size_t i = 0; i < params.cacheCounts.size(); ++i)
        std::cout << (i ? "," : "") << params.cacheCounts[i];
    std::cout << "}, " << TextTable::grouped(params.refsPerTrace)
              << " refs per trace, seed " << params.seed
              << ", cluster " << params.clusterProcs
              << (invariant_period != 0 ? ", invariants on" : "")
              << '\n';

    for (const unsigned n : params.cacheCounts) {
        const Trace trace = scalingTrace(n, params);

        EventTracer tracer(tracer_config);
        RunnerConfig config;
        config.makeCellTraceSink =
            [&tracer](const std::string &scheme,
                      const std::string &trace_name) {
                return tracer.session(scheme, trace_name);
            };
        const ExperimentRunner runner(std::move(config));

        const std::string path = artifactPath(out_dir, n);
        JsonlSink sink(path);
        const GridResult grid = runWithArtifacts(
            runner, schemes, {trace}, sim, sink,
            [&tracer](MetricRegistry &metrics) {
                tracer.exportMetrics(metrics);
            });

        std::cout << "N=" << n << ": " << grid.cells.size()
                  << " cells in "
                  << TextTable::fixed(grid.wallSeconds, 2) << "s ("
                  << TextTable::grouped(static_cast<std::uint64_t>(
                         grid.refsPerSecond()))
                  << " refs/s) -> " << path << '\n';
    }
    return 0;
}

/** The artifacts of one machine size, loaded. */
struct SizePoint
{
    unsigned numCaches = 0;
    RunArtifacts artifacts;
};

/** Cell for (scheme, N); every grid cell exists by construction. */
const CellRecord &
cellFor(const SizePoint &point, const std::string &scheme)
{
    for (const CellRecord &cell : point.artifacts.cells)
        if (cell.scheme == scheme)
            return cell;
    fatal("artifacts for N=", point.numCaches, " hold no '", scheme,
          "' cell; re-run `dirsim_scaling run` with the same "
          "DIRSIM_SCALING_* environment");
}

/** One scheme-by-N curve table from a value of each cell and its
 *  machine size N. */
template <typename ValueFn>
void
curveTable(const std::vector<SizePoint> &points,
           const std::vector<std::string> &schemes, const char *title,
           ValueFn &&value)
{
    std::cout << '\n' << title << '\n';
    std::vector<std::string> header{"scheme"};
    for (const SizePoint &point : points)
        header.push_back("N=" + std::to_string(point.numCaches));
    TextTable table(std::move(header));
    for (const std::string &scheme : schemes) {
        std::vector<std::string> row{scheme};
        for (const SizePoint &point : points)
            row.push_back(value(cellFor(point, scheme), point.numCaches));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
}

/**
 * One distribution per machine size as a value-by-N fraction table:
 * rows only for values some N recorded, then the sample counts.
 */
void
distributionTable(const std::vector<SizePoint> &points,
                  const std::vector<Histogram> &dists, const char *title,
                  const std::function<std::string(std::uint64_t)> &label)
{
    std::cout << '\n' << title << '\n';
    std::vector<std::string> header{"value"};
    for (const SizePoint &point : points)
        header.push_back("N=" + std::to_string(point.numCaches));
    TextTable table(std::move(header));

    std::uint64_t max_value = 0;
    for (const Histogram &dist : dists)
        max_value = std::max(max_value, dist.maxValue());
    for (std::uint64_t v = 0; v <= max_value; ++v) {
        bool any = false;
        for (const Histogram &dist : dists)
            any = any || dist.count(v) != 0;
        if (!any)
            continue;
        std::vector<std::string> row{label(v)};
        for (const Histogram &dist : dists)
            row.push_back(dist.samples() == 0
                              ? std::string("-")
                              : TextTable::fixed(dist.fraction(v), 4));
        table.addRow(std::move(row));
    }
    std::vector<std::string> samples{"samples"};
    for (const Histogram &dist : dists)
        samples.push_back(TextTable::grouped(dist.samples()));
    table.addRule();
    table.addRow(std::move(samples));
    table.print(std::cout);
}

int
report(const std::string &out_dir)
{
    const ScalingParams params = ScalingParams::fromEnvironment();
    const std::vector<std::string> schemes = schemeNames();

    std::vector<SizePoint> points;
    for (const unsigned n : params.cacheCounts)
        points.push_back({n, loadArtifacts(artifactPath(out_dir, n))});

    std::cout << "scaling curves: " << schemes.size()
              << " schemes across " << points.size()
              << " machine sizes\n";

    curveTable(points, schemes,
               "Bus cycles per reference vs N (pipelined bus)",
               [](const CellRecord &cell, unsigned) {
                   return TextTable::fixed(
                       cell.cost(paperPipelinedCosts()).total(), 4);
               });
    curveTable(points, schemes,
               "Bus cycles per reference vs N (non-pipelined bus)",
               [](const CellRecord &cell, unsigned) {
                   return TextTable::fixed(
                       cell.cost(paperNonPipelinedCosts()).total(),
                       4);
               });
    curveTable(points, schemes,
               "Invalidation messages per 1,000 references vs N",
               [](const CellRecord &cell, unsigned) {
                   return TextTable::fixed(
                       1000.0
                           * static_cast<double>(
                               cell.ops.invalMsgs
                               + cell.ops.broadcastInvals
                               + cell.ops.overflowInvals)
                           / static_cast<double>(cell.totalRefs),
                       3);
               });
    curveTable(points, schemes,
               "Directory bits per memory block vs N (-: no storage formula)",
               [](const CellRecord &cell, unsigned n) {
                   // N, not the cell's cache count: a short trace
                   // need not reference every cache.
                   const std::optional<double> bits =
                       directoryBitsPerBlock(parseScheme(cell.scheme), n);
                   return bits ? TextTable::fixed(*bits, 0)
                               : std::string("-");
               });
    curveTable(points, schemes,
               "Mean caches invalidated per clean-block write vs N",
               [](const CellRecord &cell, unsigned) {
                   return cell.cleanWriteHolders.samples() == 0
                       ? std::string("-")
                       : TextTable::fixed(
                             cell.cleanWriteHolders.mean(), 4);
               });

    // Figure 1 per machine size: every cell's clean-block writes.
    std::vector<Histogram> invalidations(points.size());
    for (std::size_t p = 0; p < points.size(); ++p)
        for (const CellRecord &cell : points[p].artifacts.cells)
            invalidations[p].merge(cell.cleanWriteHolders);
    distributionTable(
        points, invalidations,
        "Invalidation distribution vs N (fraction of clean-block "
        "writes invalidating k caches)",
        [](std::uint64_t v) { return std::to_string(v); });

    // The tracer's write runs; its capped histogram parks runs of
    // traceDistBuckets or more writes in one overflow row.
    const std::string runs = "trace.dist.write_run_length.";
    std::vector<Histogram> run_lengths(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        const RunArtifacts &artifacts = points[p].artifacts;
        for (std::uint64_t v = 0; v <= traceDistBuckets; ++v) {
            const std::string key =
                runs + (v == traceDistBuckets ? std::string("overflow")
                                              : std::to_string(v));
            if (artifacts.hasMetrics && artifacts.metrics.has(key))
                run_lengths[p].add(v, artifacts.metrics.counter(key));
        }
    }
    distributionTable(
        points, run_lengths,
        "Write-run length vs N (tracer; consecutive writes by one "
        "cache before a handoff)",
        [](std::uint64_t v) {
            return v == traceDistBuckets ? ">=" + std::to_string(v)
                                         : std::to_string(v);
        });
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() >= 2 && args[0] == "run") {
            std::uint64_t invariants = 0;
            bool ok = true;
            for (std::size_t i = 2; i < args.size(); i += 2) {
                if (args[i] == "--invariants" && i + 1 < args.size())
                    invariants = parseDecimal(args[i + 1], "--invariants");
                else
                    ok = false;
            }
            if (ok)
                return run(args[1], invariants);
        }
        if (args.size() == 2 && args[0] == "report")
            return report(args[1]);
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    }
    std::cerr << "usage: dirsim_scaling run <out_dir> "
                 "[--invariants <period>]\n"
                 "       dirsim_scaling report <out_dir>\n";
    return 2;
}
