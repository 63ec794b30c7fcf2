/**
 * @file
 * Observed experiment runs: execute a grid and persist its structured
 * artifacts (manifest + per-cell records + metrics) to a JsonlSink,
 * and load such artifacts back for reporting, diffing, and
 * regression checks.
 *
 * Records are written after the grid completes, in grid
 * (scheme-major) order, so two runs of the same experiment produce
 * byte-comparable files apart from wall-clock fields. All
 * deterministic metrics (event/op counters, histograms, derived
 * costs) are guaranteed identical run-to-run; diffArtifacts()
 * compares exactly those.
 */

#ifndef DIRSIM_OBS_ARTIFACTS_HH
#define DIRSIM_OBS_ARTIFACTS_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/sink.hh"
#include "sim/runner.hh"

namespace dirsim
{

/**
 * Hook to contribute extra metrics (e.g. an EventTracer's trace.dist
 * histograms) to the run's metrics record. Invoked once, after the
 * grid completes and its own gridMetrics() are in the registry,
 * right before the registry is written to the sink.
 */
using ExtraMetricsFn = std::function<void(MetricRegistry &)>;

/**
 * Run every scheme on every trace and write the run's artifacts to
 * @p sink: a manifest whose traces are recorded with source "memory"
 * (record and cache counts, no path or checksum), one record per
 * cell, and a MetricRegistry snapshot. A sweep over trace files
 * records their file provenance instead (sweep/run.hh).
 */
GridResult runWithArtifacts(const ExperimentRunner &runner,
                            const std::vector<SchemeSpec> &schemes,
                            const std::vector<Trace> &traces,
                            const SimConfig &sim, JsonlSink &sink,
                            const ExtraMetricsFn &extraMetrics = {});

/** A results file, loaded. */
struct RunArtifacts
{
    RunManifest manifest;
    bool hasManifest = false;
    std::vector<CellRecord> cells;
    MetricRegistry metrics;
    bool hasMetrics = false;
};

/**
 * Parse a JSONL results stream: "manifest", "cell", and "metrics"
 * lines in any order (unknown kinds are skipped so the schema can
 * grow). The first manifest/metrics line wins; every cell line is
 * kept.
 *
 * @throws UsageError on malformed JSON or records (message carries
 *         the line number)
 */
RunArtifacts loadArtifacts(std::istream &in);

/** loadArtifacts() from a file. @throws UsageError when unreadable */
RunArtifacts loadArtifacts(const std::string &path);

/**
 * Build the unified metric view of a finished grid:
 *   sim.<trace>.<scheme>.refs / .events.<event> / .ops.<op>  counters
 *   runner.cell.wall_ms                                      timer
 *   runner.cell.phase.<phase>_ns                             timers
 *   runner.grid.{wall_seconds,refs_per_second,jobs,cells}    gauges
 */
MetricRegistry gridMetrics(const GridResult &grid);

/** One deterministic-metric difference between two runs' cells. */
struct MetricDelta
{
    std::string cell;   ///< "<scheme>/<trace>", or "" for run-level
    std::string metric; ///< field name, e.g. "events.wm_blk_cln"
    std::string a;      ///< value in the first run ("-" if absent)
    std::string b;      ///< value in the second run ("-" if absent)
};

/**
 * Cell-by-cell comparison of two runs over their deterministic
 * metrics: cell presence, refs, cache counts, every event and op
 * counter, the Figure 1 histogram, and the derived costs under both
 * paper bus models. Wall-clock fields are ignored — two identical
 * runs always diff clean.
 */
std::vector<MetricDelta> diffArtifacts(const RunArtifacts &a,
                                       const RunArtifacts &b);

} // namespace dirsim

#endif // DIRSIM_OBS_ARTIFACTS_HH
