/**
 * @file
 * Example: `dirsim_scaling` — the cache-count sweep.
 *
 * `run` simulates the scaling scheme grid (sim/scaling.hh) once per
 * cache count N, with the coherence event tracer attached, and writes
 * one JSONL artifacts file per N. `report` re-reads those artifacts
 * and renders the scalability curves the Section 6 debate is about:
 * bus cycles per reference and invalidation traffic as a function of
 * N per scheme, plus the exact invalidation-size distributions the
 * tracer recorded at each machine size.
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

#include <filesystem>
#include <iostream>
#include <memory>
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
    // exact trace.dist.* distributions; DIRSIM_TRACE_SAMPLE only
    // thins the event timeline, never the distributions.
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

/** One scheme-by-N curve table from a per-cell value. */
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
            row.push_back(value(cellFor(point, scheme)));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
}

/** One tracer distribution across machine sizes, nonzero rows only. */
void
distributionTable(const std::vector<SizePoint> &points,
                  const std::string &name, const char *title)
{
    std::cout << '\n' << title << '\n';
    const std::string prefix = "trace.dist." + name;
    std::vector<std::string> header{"value"};
    for (const SizePoint &point : points)
        header.push_back("N=" + std::to_string(point.numCaches));
    TextTable table(std::move(header));

    const auto counter = [&](const SizePoint &point,
                             const std::string &key) -> std::uint64_t {
        return point.artifacts.hasMetrics
                    && point.artifacts.metrics.has(key)
            ? point.artifacts.metrics.counter(key)
            : 0;
    };
    const auto fraction = [&](const SizePoint &point,
                              const std::string &key) {
        const std::uint64_t samples =
            counter(point, prefix + ".samples");
        if (samples == 0)
            return std::string("-");
        return TextTable::fixed(
            static_cast<double>(counter(point, key))
                / static_cast<double>(samples),
            4);
    };

    for (std::size_t v = 0; v < traceDistBuckets; ++v) {
        const std::string key = prefix + "." + std::to_string(v);
        bool any = false;
        for (const SizePoint &point : points)
            any = any || counter(point, key) != 0;
        if (!any)
            continue;
        std::vector<std::string> row{std::to_string(v)};
        for (const SizePoint &point : points)
            row.push_back(fraction(point, key));
        table.addRow(std::move(row));
    }
    std::vector<std::string> overflow{
        ">=" + std::to_string(traceDistBuckets)};
    std::vector<std::string> samples{"samples"};
    for (const SizePoint &point : points) {
        overflow.push_back(fraction(point, prefix + ".overflow"));
        samples.push_back(TextTable::grouped(
            counter(point, prefix + ".samples")));
    }
    table.addRow(std::move(overflow));
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
               [](const CellRecord &cell) {
                   return TextTable::fixed(
                       cell.cost(paperPipelinedCosts()).total(), 4);
               });
    curveTable(points, schemes,
               "Bus cycles per reference vs N (non-pipelined bus)",
               [](const CellRecord &cell) {
                   return TextTable::fixed(
                       cell.cost(paperNonPipelinedCosts()).total(),
                       4);
               });
    curveTable(points, schemes,
               "Invalidation messages per 1,000 references vs N",
               [](const CellRecord &cell) {
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
               "Mean caches invalidated per clean-block write vs N",
               [](const CellRecord &cell) {
                   return cell.cleanWriteHolders.samples() == 0
                       ? std::string("-")
                       : TextTable::fixed(
                             cell.cleanWriteHolders.mean(), 4);
               });

    distributionTable(
        points, "inval_on_clean_write",
        "Invalidation distribution vs N (tracer; fraction of "
        "clean-block writes invalidating k caches)");
    distributionTable(
        points, "sharer_set_size",
        "Sharer-set size at clean-block writes vs N (tracer; "
        "writer included)");
    distributionTable(
        points, "write_run_length",
        "Write-run length vs N (tracer; consecutive writes by one "
        "cache before a handoff)");
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
                    invariants = std::stoull(args[i + 1]);
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
