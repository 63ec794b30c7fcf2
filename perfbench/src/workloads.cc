#include "workloads.hh"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "layers.hh"
#include "obs/artifacts.hh"
#include "obs/cell_cache.hh"
#include "obs/sink.hh"
#include "protocols/registry.hh"
#include "sim/decoded.hh"
#include "sim/scaling.hh"
#include "sim/suite.hh"
#include "sweep/expand.hh"
#include "sweep/run.hh"
#include "sweep/spec.hh"

namespace perfbench
{

using namespace dirsim;
namespace fs = std::filesystem;

PassResult
runChecked(const std::string &label, std::size_t expected,
           Checker &checker, const std::function<PassResult()> &pass)
{
    try {
        PassResult result = pass();
        checker.check(label, result.cells, expected);
        return result;
    } catch (const std::exception &error) {
        checker.failPass(label, expected, error.what());
        return {};
    }
}

namespace
{

std::uint64_t
earliestStart(const std::vector<CellTiming> &timings)
{
    std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
    for (const CellTiming &timing : timings)
        first = std::min(first, timing.startNs);
    return timings.empty() ? 0 : first;
}

/** Record a span per finished cell from the runner's progress hook. */
ProgressCallback
cellSpans(Tracer &tracer, std::int64_t parent)
{
    if (!tracer.enabled())
        return {};
    return [&tracer, parent](const GridProgress &progress) {
        const std::uint64_t end = nowNs();
        const auto wall = static_cast<std::uint64_t>(
            progress.cell.wallSeconds * 1e9);
        tracer.record("runner.cell", parent, end - std::min(end, wall),
                      end, progress.cell.refs);
    };
}

std::uint64_t
totalRecords(const std::vector<const Trace *> &traces)
{
    std::uint64_t records = 0;
    for (const Trace *trace : traces)
        records += trace->size();
    return records;
}

void
appendDigests(const SweepOutcome &outcome, std::vector<CellDigest> &cells)
{
    for (const CellRecord &record : outcome.records) {
        cells.push_back({record.scheme + "/" + record.trace,
                         cellDigest(record.events, record.ops,
                                    record.cleanWriteHolders)});
    }
}

std::vector<SchemeSpec>
parsedPaperSchemes()
{
    std::vector<SchemeSpec> specs;
    for (const std::string &name : paperSchemes())
        specs.push_back(parseScheme(name));
    return specs;
}

/** The pops/thor/pero entries of a sweep spec's traces, seeded the
 *  way standardSuite() seeds them. */
std::string
paperTracesJson(std::uint64_t refs, std::uint64_t seed)
{
    std::string out;
    const char *profiles[] = {"pops", "thor", "pero"};
    for (std::uint64_t i = 0; i < 3; ++i) {
        out += std::string(i == 0 ? "" : ", ") + "{\"profile\": \""
            + profiles[i] + "\", \"refs\": " + std::to_string(refs)
            + ", \"seed\": " + std::to_string(seed * 3 + i + 1) + "}";
    }
    return out;
}

/** A sweep spec of @p schemes x @p traces_json x @p geometry_json. */
std::string
sweepSpecText(const std::vector<SchemeSpec> &schemes,
              const std::string &traces_json,
              const std::string &geometry_json)
{
    std::string schemes_json;
    for (const SchemeSpec &scheme : schemes)
        schemes_json += (schemes_json.empty() ? "\"" : ", \"")
            + scheme.name() + "\"";
    return "{\"name\": \"perfbench\", \"schemes\": [" + schemes_json
        + "], \"traces\": [" + traces_json + "], \"geometries\": ["
        + geometry_json + "]}";
}

/** Passes of each kind the traced run makes at jobs=1 (even, so each
 *  kind goes first equally often). */
constexpr unsigned overheadReps = 4;

/**
 * The traced run's jobs=1 passes: overheadReps untraced and as many
 * traced ones, in turn. Sets trace.overhead.ms from the fastest of
 * each, since other tenants of the host only ever slow a pass down,
 * and returns the fastest traced pass.
 */
PassResult
seqPasses(Workload &workload, Tracer &tracer, Checker &checker,
          Metrics &metrics)
{
    Tracer untraced(false);
    const std::size_t n = workload.cellsPerPass();
    const auto keep_faster = [](PassResult &best, PassResult candidate) {
        const bool ran = candidate.endNs > candidate.startNs;
        if (ran && (best.endNs == best.startNs
                    || candidate.seconds() < best.seconds()))
            best = std::move(candidate);
    };
    PassResult plain;
    PassResult traced;
    const auto run_plain = [&] {
        keep_faster(plain, runChecked("untraced seq", n, checker, [&] {
                        return workload.pass(1, untraced);
                    }));
    };
    const auto run_traced = [&] {
        keep_faster(traced, runChecked("traced seq", n, checker, [&] {
                        return workload.pass(1, tracer);
                    }));
    };
    // Each kind goes first in half the rounds: with untraced always
    // first, all six overheads of a probe set came out negative.
    for (unsigned rep = 0; rep < overheadReps; ++rep) {
        if (rep % 2 == 0) {
            run_plain();
            run_traced();
        } else {
            run_traced();
            run_plain();
        }
    }
    metrics.set("trace.overhead.ms",
                (traced.seconds() - plain.seconds()) * 1e3, "ms");
    return traced;
}

/**
 * paper_grid and scale1024_grid: a scheme x trace grid through
 * ExperimentRunner + runWithArtifacts to a JSONL file, infinite
 * caches, no cell cache.
 */
class GridWorkload : public Workload
{
  public:
    using Generator = std::function<std::vector<Trace>()>;

    /** @param traces_json the traces @p generate_arg makes, as the
     *  entries of a sweep spec's "traces" */
    GridWorkload(std::string name_arg, Options options_arg,
                 std::vector<SchemeSpec> schemes_arg,
                 std::size_t num_traces_arg, std::uint64_t refs_arg,
                 Generator generate_arg, std::string traces_json)
        : name(std::move(name_arg)), options(std::move(options_arg)),
          schemes(std::move(schemes_arg)), numTraces(num_traces_arg),
          refs(refs_arg), generate(std::move(generate_arg)),
          tracesJson(std::move(traces_json))
    {}

    std::size_t cellsPerPass() const override
    {
        return schemes.size() * numTraces;
    }

    std::uint64_t refsPerTrace() const override { return refs; }

    void setup(Tracer &tracer) override
    {
        traces.clear(); // hold one set of traces, as a user would
        Tracer::Scope span(tracer, "tracegen");
        traces = generate();
        span.setCount(totalRecords(tracePointers()));
    }

    PassResult pass(unsigned jobs, Tracer &tracer) override
    {
        return runGrid(jobs, tracer,
                       jobs == 1 ? "runner.pass.seq" : "runner.pass.par");
    }

    void traceRun(Tracer &tracer, Metrics &metrics,
                  Checker &checker) override
    {
        setup(tracer);
        metrics.set("tracegen.ns_per_ref", tracer.nsPerUnit("tracegen"),
                    "ns/ref");
        probeTraceLayers(tracePointers(), tracer, metrics);
        probeSharerStore(options.seed, options.tiny, tracer, metrics);

        const PassResult seq = seqPasses(*this, tracer, checker, metrics);
        const PassResult par =
            runChecked("traced par", cellsPerPass(), checker,
                       [&] { return pass(options.jobs, tracer); });
        reportPassLayers(seq, par, metrics);
        metrics.set("sim.plan.ms", static_cast<double>(seq.planNs) / 1e6,
                    "ms");
        probeResume(tracer, metrics, checker);
    }

  private:
    /**
     * The grid has no cell cache, so the cache and sweep layers are
     * timed on its cells directly: the last pass's result of every
     * cell is stored once, then the grid, written as a sweep spec,
     * resumes from that cache. No cell is simulated here.
     */
    void probeResume(Tracer &tracer, Metrics &metrics, Checker &checker)
    {
        const SweepPlan plan = expandSweep(parseSweepSpec(
            sweepSpecText(schemes, tracesJson, "\"infinite\"")));
        const std::string dir = options.workdir + "/" + name + ".cache";
        const std::string path =
            options.workdir + "/" + name + ".resume.jsonl";
        fs::remove_all(dir);
        Tracer::Scope span(tracer, "obs.cache");
        const auto cache = std::make_shared<TimedCellCache>(
            std::make_shared<FileCellCache>(dir), tracer, span.id());
        const PassResult resume =
            runChecked("sweep resume", cellsPerPass(), checker, [&] {
                for (std::size_t t = 0; t < traces.size(); ++t) {
                    const std::uint64_t checksum =
                        traceChecksumFnv64(decodeTrace(
                            traces[t], defaultBlockBytes,
                            SharingModel::ByProcess));
                    for (std::size_t s = 0; s < schemes.size(); ++s) {
                        cache->store(
                            cellCacheKey(checksum, schemes[s], SimConfig{}),
                            lastGrid.schemes.at(s).perTrace.at(t), 0.0);
                    }
                }
                SweepOptions sweep;
                sweep.jobs = 1;
                sweep.cache = cache;
                Tracer::Scope phase(tracer, "sweep.resume");
                PassResult result;
                result.startNs = nowNs();
                const SweepOutcome outcome = runSweep(plan, sweep);
                {
                    JsonlSink sink(path);
                    writeSweepArtifacts(outcome, sink);
                }
                result.endNs = nowNs();
                appendDigests(outcome, result.cells);
                return result;
            });
        reportCacheLayers(*cache, resume.seconds() * 1e3, metrics);
        fs::remove_all(dir);
    }

    std::vector<const Trace *> tracePointers() const
    {
        std::vector<const Trace *> out;
        for (const Trace &trace : traces)
            out.push_back(&trace);
        return out;
    }

    PassResult runGrid(unsigned jobs, Tracer &tracer,
                       const std::string &span_name)
    {
        Tracer::Scope span(tracer, span_name);
        RunnerConfig config;
        config.jobs = jobs;
        config.onCellComplete = cellSpans(tracer, span.id());
        const ExperimentRunner runner(config);
        const std::string path =
            options.workdir + "/" + name + ".artifacts.jsonl";

        PassResult result;
        result.jobs = runner.resolvedJobs();
        result.startNs = nowNs();
        GridResult grid;
        {
            JsonlSink sink(path);
            grid = runWithArtifacts(runner, schemes, traces, SimConfig{},
                                    sink);
        }
        result.endNs = nowNs();

        const std::uint64_t cells_end =
            grid.startNs
            + static_cast<std::uint64_t>(grid.wallSeconds * 1e9);
        result.refs = grid.totalRefs();
        result.simulatedRefs = grid.simulatedRefs();
        result.timings = grid.cells;
        result.cellSpanSeconds = grid.wallSeconds;
        result.firstCellNs = earliestStart(grid.cells);
        result.planNs = grid.setupPhases.get(Phase::Read);
        result.artifactNs = result.endNs - std::min(result.endNs, cells_end);
        result.artifactBytes = fs::file_size(path);
        for (const SchemeResults &scheme : grid.schemes) {
            for (const SimResult &cell : scheme.perTrace) {
                result.cells.push_back(
                    {scheme.scheme + "/" + cell.traceName,
                     cellDigest(cell.events, cell.ops,
                                cell.cleanWriteHolders)});
            }
        }
        if (tracer.enabled()) {
            tracer.record("sim.plan", span.id(), result.startNs,
                          result.startNs + result.planNs);
            tracer.record("obs.artifacts", span.id(),
                          result.endNs - result.artifactNs, result.endNs,
                          result.artifactBytes);
        }
        lastGrid = std::move(grid);
        return result;
    }

    std::string name;
    Options options;
    std::vector<SchemeSpec> schemes;
    std::size_t numTraces;
    std::uint64_t refs;
    Generator generate;
    std::string tracesJson;
    std::vector<Trace> traces;
    /** The last pass's results, which probeResume() stores. */
    GridResult lastGrid;
};

/** A CellCache that never hits: lets buildPlan() plan as it does
 *  with a cache attached (checksums and keys) without one. */
class NoCellCache : public CellCache
{
  public:
    bool lookup(std::uint64_t, SimResult &) override { return false; }
    void store(std::uint64_t, const SimResult &, double) override {}
};

/**
 * finite_sweep: the 4 paper schemes x pops/thor/pero x one finite
 * geometry through parseSweepSpec -> expandSweep -> runSweep ->
 * writeSweepArtifacts with a FileCellCache in a fresh directory, then
 * the same spec again as a resume in which every cell is a cache hit.
 */
class SweepWorkload : public Workload
{
  public:
    explicit SweepWorkload(Options options_arg)
        : options(std::move(options_arg)),
          refs(options.tiny ? 30'000 : 500'000)
    {}

    std::size_t cellsPerPass() const override
    {
        return 2 * paperSchemes().size() * 3; // cold + resume
    }

    std::uint64_t refsPerTrace() const override { return refs; }

    void setup(Tracer &tracer) override
    {
        Tracer::Scope span(tracer, "sweep.spec");
        plan = expandSweep(parseSweepSpec(specText()));
        span.setCount(plan.cells.size());
    }

    PassResult pass(unsigned jobs, Tracer &tracer) override
    {
        const std::string dir = options.workdir + "/finite_sweep.cache";
        fs::remove_all(dir);
        const std::string cold_path =
            options.workdir + "/finite_sweep.cold.jsonl";
        const std::string resume_path =
            options.workdir + "/finite_sweep.resume.jsonl";

        Tracer::Scope span(tracer,
                           jobs == 1 ? "runner.pass.seq" : "runner.pass.par");
        PassResult result;
        result.jobs = jobs;
        std::shared_ptr<CellCache> cache =
            std::make_shared<FileCellCache>(dir);
        if (tracer.enabled()) {
            result.timedCache =
                std::make_shared<TimedCellCache>(cache, tracer, span.id());
            cache = result.timedCache;
        }
        SweepOptions sweep;
        sweep.jobs = jobs;
        sweep.cache = cache;
        sweep.onProgress = cellSpans(tracer, span.id());

        result.startNs = nowNs();
        SweepOutcome cold;
        {
            Tracer::Scope phase(tracer, "sweep.cold");
            cold = runSweep(plan, sweep);
        }
        const std::uint64_t artifacts_start = nowNs();
        {
            Tracer::Scope phase(tracer, "obs.artifacts");
            JsonlSink sink(cold_path);
            writeSweepArtifacts(cold, sink);
        }
        const std::uint64_t resume_start = nowNs();
        SweepOutcome resume;
        {
            Tracer::Scope phase(tracer, "sweep.resume");
            resume = runSweep(plan, sweep);
            JsonlSink sink(resume_path);
            writeSweepArtifacts(resume, sink);
        }
        result.endNs = nowNs();

        result.artifactNs = resume_start - artifacts_start;
        result.artifactBytes = fs::file_size(cold_path);
        result.resumeNs = result.endNs - resume_start;
        result.simulatedRefs = cold.simulatedRefs + resume.simulatedRefs;
        result.timings = cold.timings;
        result.cellSpanSeconds = cold.wallSeconds;
        result.firstCellNs = earliestStart(cold.timings);
        for (const SweepOutcome *outcome : {&cold, &resume}) {
            for (const CellTiming &timing : outcome->timings)
                result.refs += timing.refs;
            appendDigests(*outcome, result.cells);
        }
        fs::remove_all(dir);
        return result;
    }

    void traceRun(Tracer &tracer, Metrics &metrics,
                  Checker &checker) override
    {
        setup(tracer);
        std::vector<std::unique_ptr<Trace>> traces;
        std::vector<const Trace *> pointers;
        {
            Tracer::Scope span(tracer, "tracegen");
            traces = materializeSweepTraces(plan);
            for (const auto &trace : traces)
                pointers.push_back(trace.get());
            span.setCount(totalRecords(pointers));
        }
        metrics.set("tracegen.ns_per_ref", tracer.nsPerUnit("tracegen"),
                    "ns/ref");
        probeTraceLayers(pointers, tracer, metrics);
        probeSharerStore(options.seed, options.tiny, tracer, metrics);

        // runSweep plans with its cache attached: decode, checksum and
        // key every cell before the first one runs.
        {
            std::vector<SimJob> jobs;
            for (const SweepCell &cell : plan.cells) {
                jobs.push_back({TraceRef::of(*traces[cell.traceIndex]),
                                cell.scheme, cell.config(plan.spec)});
            }
            JobOptions engine;
            engine.cache = std::make_shared<NoCellCache>();
            Tracer::Scope span(tracer, "sim.plan");
            const SimPlan sim_plan = buildPlan(jobs, engine);
            span.setCount(sim_plan.cells.size());
        }
        metrics.set("sim.plan.ms",
                    static_cast<double>(tracer.totalNs("sim.plan")) / 1e6,
                    "ms");
        traces.clear();

        const PassResult seq = seqPasses(*this, tracer, checker, metrics);
        const PassResult par =
            runChecked("traced par", cellsPerPass(), checker,
                       [&] { return pass(options.jobs, tracer); });
        reportPassLayers(seq, par, metrics);
        if (seq.timedCache) {
            reportCacheLayers(*seq.timedCache,
                              static_cast<double>(seq.resumeNs) / 1e6,
                              metrics);
        } else {
            reportCacheLayers(TimedCellCache(nullptr, tracer, -1), 0.0,
                              metrics);
        }
    }

  private:
    /** The spec: one trace per paper profile, seeded the way
     *  standardSuite() seeds them, under the finite geometry. */
    std::string specText() const
    {
        const FiniteCacheConfig geometry = finiteGeometry();
        return sweepSpecText(
            parsedPaperSchemes(), paperTracesJson(refs, options.seed),
            "{\"capacity_bytes\": " + std::to_string(geometry.capacityBytes)
                + ", \"ways\": " + std::to_string(geometry.ways) + "}");
    }

    Options options;
    std::uint64_t refs;
    SweepPlan plan;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_grid", "scale1024_grid", "finite_sweep"};
    return names;
}

std::uint64_t
defaultSeed(const std::string &workload)
{
    return workload == "scale1024_grid" ? 1024 : 88;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &options)
{
    if (name == "paper_grid") {
        SuiteParams params;
        params.refsPerTrace = options.tiny ? 30'000 : 1'500'000;
        params.seed = options.seed;
        return std::make_unique<GridWorkload>(
            name, options, parsedPaperSchemes(), 3, params.refsPerTrace,
            [params] { return standardSuite(params); },
            paperTracesJson(params.refsPerTrace, params.seed));
    }
    if (name == "scale1024_grid") {
        ScalingParams params;
        params.cacheCounts = {1024};
        params.refsPerTrace = options.tiny ? 20'000 : 600'000;
        params.seed = options.seed;
        return std::make_unique<GridWorkload>(
            name, options, scalingSchemes(), 1, params.refsPerTrace,
            [params] {
                std::vector<Trace> traces;
                traces.push_back(scalingTrace(1024, params));
                return traces;
            },
            "{\"profile\": \"scale\", \"caches\": [1024], \"refs\": "
                + std::to_string(params.refsPerTrace)
                + ", \"seed\": " + std::to_string(params.seed) + "}");
    }
    if (name == "finite_sweep")
        return std::make_unique<SweepWorkload>(options);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench
