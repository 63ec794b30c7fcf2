#include "obs/artifacts.hh"

#include <fstream>
#include <map>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace dirsim
{

GridResult
runWithArtifacts(const ExperimentRunner &runner,
                 const std::vector<SchemeSpec> &schemes,
                 const std::vector<Trace> &traces,
                 const SimConfig &sim, JsonlSink &sink,
                 const ExtraMetricsFn &extraMetrics)
{
    RunManifest manifest = RunManifest::capture(schemes, sim);
    manifest.stampStart();

    GridResult grid = runner.run(schemes, traces, sim);
    manifest.stampFinish();

    // Caches come from the grid's own cell data (the decode counted
    // them), not from a second scan of every trace.
    for (std::size_t t = 0; t < traces.size(); ++t) {
        TraceProvenance provenance;
        provenance.name = traces[t].name();
        provenance.source = "memory";
        provenance.records = traces[t].size();
        provenance.caches = grid.schemes[0].perTrace[t].numCaches;
        manifest.traces.push_back(std::move(provenance));
    }
    manifest.jobs = grid.jobs;
    sink.writeManifest(manifest);
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        for (std::size_t t = 0; t < traces.size(); ++t) {
            sink.writeCell(CellRecord::fromCell(
                grid.schemes[s].perTrace[t],
                grid.cells[s * traces.size() + t]));
        }
    }
    MetricRegistry metrics = gridMetrics(grid);
    if (extraMetrics)
        extraMetrics(metrics);
    sink.writeMetrics(metrics);
    sink.finish();
    return grid;
}

RunArtifacts
loadArtifacts(std::istream &in)
{
    RunArtifacts artifacts;
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        if (line.empty()
            || line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        try {
            const JsonValue json = JsonValue::parse(line);
            const std::string &kind = json.at("kind").asString();
            if (kind == "manifest") {
                if (!artifacts.hasManifest) {
                    artifacts.manifest = RunManifest::fromJson(json);
                    artifacts.hasManifest = true;
                }
            } else if (kind == "cell") {
                artifacts.cells.push_back(CellRecord::fromJson(json));
            } else if (kind == "metrics") {
                if (!artifacts.hasMetrics) {
                    artifacts.metrics = MetricRegistry::fromJson(
                        json.at("metrics"));
                    artifacts.hasMetrics = true;
                }
            }
            // Unknown kinds are skipped: forward compatibility.
        } catch (const SimulationError &error) {
            fatal("results line ", line_number, ": ", error.what());
        }
    }
    fatalIf(artifacts.cells.empty() && !artifacts.hasManifest,
            "results stream holds no manifest and no cell records");
    return artifacts;
}

RunArtifacts
loadArtifacts(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open results file '", path, "'");
    try {
        return loadArtifacts(in);
    } catch (const UsageError &error) {
        fatal("'", path, "': ", error.what());
    }
}

MetricRegistry
gridMetrics(const GridResult &grid)
{
    MetricRegistry metrics;
    const std::size_t num_traces =
        grid.schemes.empty() ? 0 : grid.schemes[0].perTrace.size();
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        for (std::size_t t = 0; t < num_traces; ++t) {
            const SimResult &result = grid.schemes[s].perTrace[t];
            const CellTiming &cell =
                grid.cells[s * num_traces + t];
            // Trace and scheme names come from user input (file
            // stems may contain '.'), so each is escaped into a
            // single dotted-name segment.
            const std::string prefix = "sim."
                + MetricRegistry::escapeSegment(result.traceName)
                + "." + MetricRegistry::escapeSegment(result.scheme);
            metrics.add(prefix + ".refs", result.totalRefs);
            for (std::size_t e = 0; e < numEventTypes; ++e) {
                const auto event = static_cast<EventType>(e);
                const std::uint64_t count =
                    result.events.count(event);
                if (count != 0)
                    metrics.add(prefix + ".events."
                                    + eventKey(event),
                                count);
            }
            for (const auto &[name, member] : opFields()) {
                if (result.ops.*member != 0)
                    metrics.add(prefix + ".ops." + name,
                                result.ops.*member);
            }
            metrics.observe("runner.cell.wall_ms",
                            static_cast<std::uint64_t>(
                                cell.wallSeconds * 1e3));
            for (std::size_t p = 0; p < numPhases; ++p) {
                const auto phase = static_cast<Phase>(p);
                metrics.observe(std::string("runner.cell.phase.")
                                    + toString(phase) + "_ns",
                                result.phases.get(phase));
            }
        }
    }
    metrics.set("runner.grid.wall_seconds", grid.wallSeconds);
    metrics.set("runner.grid.refs_per_second",
                grid.refsPerSecond());
    metrics.set("runner.grid.jobs", grid.jobs);
    metrics.set("runner.grid.cells",
                static_cast<double>(grid.cells.size()));
    if (grid.cacheEnabled) {
        metrics.add("runner.cache.hits", grid.cacheHits());
        metrics.add("runner.cache.misses", grid.cacheMisses());
        metrics.add("runner.grid.simulated_refs",
                    grid.simulatedRefs());
    }
    return metrics;
}

namespace
{

/** Compare one named u64 metric across two cells. */
void
diffField(std::vector<MetricDelta> &deltas, const std::string &cell,
          const std::string &metric, std::uint64_t a,
          std::uint64_t b)
{
    if (a != b)
        deltas.push_back({cell, metric, std::to_string(a),
                          std::to_string(b)});
}

void
diffCosts(std::vector<MetricDelta> &deltas, const std::string &cell,
          const CellRecord &a, const CellRecord &b)
{
    const auto compare = [&](const char *bus,
                             const BusCosts &costs) {
        const CycleBreakdown ba = a.cost(costs);
        const CycleBreakdown bb = b.cost(costs);
        if (ba.total() != bb.total()
            || ba.transactions != bb.transactions) {
            deltas.push_back(
                {cell, std::string("costs.") + bus + ".total",
                 TextTable::fixed(ba.total(), 6),
                 TextTable::fixed(bb.total(), 6)});
        }
    };
    compare("pipelined", paperPipelinedCosts());
    compare("non_pipelined", paperNonPipelinedCosts());
}

void
diffCell(std::vector<MetricDelta> &deltas, const std::string &key,
         const CellRecord &a, const CellRecord &b)
{
    diffField(deltas, key, "total_refs", a.totalRefs, b.totalRefs);
    diffField(deltas, key, "caches", a.numCaches, b.numCaches);
    for (std::size_t e = 0; e < numEventTypes; ++e) {
        const auto event = static_cast<EventType>(e);
        diffField(deltas, key, "events." + eventKey(event),
                  a.events.count(event), b.events.count(event));
    }
    for (const auto &[name, member] : opFields())
        diffField(deltas, key, std::string("ops.") + name,
                  a.ops.*member, b.ops.*member);
    const std::uint64_t max_bucket =
        std::max(a.cleanWriteHolders.maxValue(),
                 b.cleanWriteHolders.maxValue());
    for (std::uint64_t v = 0; v <= max_bucket; ++v)
        diffField(deltas, key,
                  "clean_write_holders." + std::to_string(v),
                  a.cleanWriteHolders.count(v),
                  b.cleanWriteHolders.count(v));
    diffCosts(deltas, key, a, b);
}

} // namespace

std::vector<MetricDelta>
diffArtifacts(const RunArtifacts &a, const RunArtifacts &b)
{
    std::vector<MetricDelta> deltas;

    // Index run B's cells; preserve run A's cell order for output.
    std::map<std::string, const CellRecord *> b_cells;
    for (const CellRecord &record : b.cells)
        b_cells.emplace(record.scheme + "/" + record.trace, &record);

    for (const CellRecord &record : a.cells) {
        const std::string key = record.scheme + "/" + record.trace;
        const auto it = b_cells.find(key);
        if (it == b_cells.end()) {
            deltas.push_back({key, "present", "yes", "-"});
            continue;
        }
        diffCell(deltas, key, record, *it->second);
        b_cells.erase(it);
    }
    for (const auto &[key, record] : b_cells)
        deltas.push_back({key, "present", "-", "yes"});
    return deltas;
}

} // namespace dirsim
