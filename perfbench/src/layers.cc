#include "layers.hh"

#include <algorithm>
#include <random>
#include <utility>

#include "directory/sharer_set.hh"
#include "protocols/registry.hh"
#include "sim/decoded.hh"
#include "sim/scaling.hh"

namespace perfbench
{

using namespace dirsim;

const std::vector<std::string> &
cellSchemes()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out = paperSchemes();
        for (const SchemeSpec &spec : scalingSchemes()) {
            const std::string name = spec.name();
            if (std::find(out.begin(), out.end(), name) == out.end())
                out.push_back(name);
        }
        return out;
    }();
    return names;
}

FiniteCacheConfig
finiteGeometry()
{
    FiniteCacheConfig geometry;
    geometry.capacityBytes = 16 * 1024;
    geometry.ways = 4;
    geometry.blockBytes = defaultBlockBytes;
    return geometry;
}

namespace
{

/** Defeats dead-code elimination of probed results. */
volatile std::uint64_t probeSink = 0;

void
probeCells(const std::vector<DecodedTrace> &decoded,
           const std::string &layer, const SimConfig &config,
           Tracer &tracer, Metrics &metrics)
{
    for (const std::string &name : cellSchemes()) {
        const SchemeSpec scheme = parseScheme(name);
        const std::string span_name = layer + "." + name;
        for (const DecodedTrace &stream : decoded) {
            Tracer::Scope span(tracer, span_name);
            const SimResult result = simulateTrace(stream, scheme, config);
            span.setCount(stream.numRecords());
            probeSink = probeSink + result.events.count(EventType::Read);
        }
        metrics.set(layer + ".ns_per_ref." + name,
                    tracer.nsPerUnit(span_name), "ns/ref");
    }
}

} // namespace

void
probeTraceLayers(const std::vector<const Trace *> &traces, Tracer &tracer,
                 Metrics &metrics)
{
    std::vector<DecodedTrace> decoded;
    decoded.reserve(traces.size());
    std::uint64_t bytes = 0;
    std::uint64_t records = 0;
    for (const Trace *trace : traces) {
        {
            Tracer::Scope span(tracer, "sim.decode");
            decoded.push_back(decodeTrace(*trace, defaultBlockBytes,
                                          SharingModel::ByProcess));
            span.setCount(trace->size());
        }
        bytes += decoded.back().memoryBytes();
        records += decoded.back().numRecords();
    }
    for (const DecodedTrace &stream : decoded) {
        Tracer::Scope span(tracer, "sim.checksum");
        probeSink = probeSink + traceChecksumFnv64(stream);
        span.setCount(stream.numRecords());
    }
    metrics.set("sim.decode.ns_per_ref", tracer.nsPerUnit("sim.decode"),
                "ns/ref");
    metrics.set("sim.checksum.ns_per_ref",
                tracer.nsPerUnit("sim.checksum"), "ns/ref");
    metrics.set("sim.decoded.bytes_per_ref",
                records == 0 ? 0.0
                             : static_cast<double>(bytes)
                        / static_cast<double>(records),
                "B/ref");

    probeCells(decoded, "sim.cell", SimConfig{}, tracer, metrics);
    SimConfig finite;
    finite.finiteCache = finiteGeometry();
    probeCells(decoded, "sim.finite_cell", finite, tracer, metrics);
}

namespace
{

/** One SharerStore probe: a sized store, sharers it holds throughout,
 *  and the (block, cache) operations timed against it. */
struct StoreCase
{
    std::string mode;
    unsigned domain = 0;
    std::uint64_t blocks = 0;
    /** Caches 0..prefill-1 hold every block for the whole probe. */
    unsigned prefill = 0;
    std::vector<std::pair<std::uint64_t, CacheId>> ops;
};

/** @p rounds passes over every block in a scrambled order, each
 *  adding one cache drawn from [first_cache, domain). */
std::vector<std::pair<std::uint64_t, CacheId>>
roundsOverBlocks(std::mt19937_64 &rng, std::uint64_t blocks,
                 unsigned rounds, unsigned domain, unsigned first_cache)
{
    std::vector<std::pair<std::uint64_t, CacheId>> ops;
    ops.reserve(blocks * rounds);
    // An odd stride permutes a power-of-two block range.
    const std::uint64_t stride = (0x9e3779b97f4a7c15ull | 1) % blocks | 1;
    for (unsigned r = 0; r < rounds; ++r) {
        const std::uint64_t offset = rng() % blocks;
        for (std::uint64_t i = 0; i < blocks; ++i) {
            const auto cache = static_cast<CacheId>(
                first_cache + rng() % (domain - first_cache));
            ops.emplace_back((offset + i * stride) % blocks, cache);
        }
    }
    return ops;
}

void
timeStoreCase(const StoreCase &probe, unsigned reps, Tracer &tracer,
              Metrics &metrics)
{
    SharerStore store;
    store.reset(probe.domain, probe.blocks);
    for (std::uint64_t block = 0; block < probe.blocks; ++block)
        for (unsigned cache = 0; cache < probe.prefill; ++cache)
            store.add(block, static_cast<CacheId>(cache));

    const std::string prefix = "directory.sharer_store.";
    const auto n = static_cast<std::uint64_t>(probe.ops.size());
    for (unsigned rep = 0; rep < reps; ++rep) {
        {
            Tracer::Scope span(tracer, prefix + "add." + probe.mode);
            for (const auto &[block, cache] : probe.ops)
                store.add(block, cache);
            span.setCount(n);
        }
        {
            Tracer::Scope span(tracer,
                               prefix + "count_excluding." + probe.mode);
            std::uint64_t total = 0;
            for (const auto &[block, cache] : probe.ops)
                total += store.countExcluding(block, cache);
            span.setCount(n);
            probeSink = probeSink + total;
        }
        {
            Tracer::Scope span(tracer, prefix + "remove." + probe.mode);
            for (const auto &[block, cache] : probe.ops)
                store.remove(block, cache);
            span.setCount(n);
        }
    }
    for (const char *op : {"add", "remove", "count_excluding"}) {
        metrics.set(prefix + op + ".ns." + probe.mode,
                    tracer.nsPerUnit(prefix + op + "." + probe.mode),
                    "ns");
    }
}

} // namespace

void
probeSharerStore(std::uint64_t seed, bool tiny, Tracer &tracer,
                 Metrics &metrics)
{
    std::mt19937_64 rng(seed);
    const std::uint64_t blocks = tiny ? 1u << 10 : 1u << 16;
    const unsigned reps = tiny ? 1 : 5;

    StoreCase word{"word", 5, blocks, 0, {}};
    word.ops = roundsOverBlocks(rng, blocks, 4, 5, 0);

    // Four adds per block never exceed the 7 inline slots.
    StoreCase inline_case{"inline", 1024, blocks, 0, {}};
    inline_case.ops = roundsOverBlocks(rng, blocks, 4, 1024, 0);

    // Eight resident sharers keep every block spilled; the probed
    // caches are disjoint from them, so removes never repack.
    StoreCase spilled{"spilled", 1024, blocks / 8, 8, {}};
    spilled.ops = roundsOverBlocks(rng, blocks / 8, 8, 1024, 8);

    for (const StoreCase *probe : {&word, &inline_case, &spilled})
        timeStoreCase(*probe, reps, tracer, metrics);
}

void
reportPassLayers(const PassResult &traced_seq,
                 const PassResult &traced_par, Metrics &metrics)
{
    metrics.set("runner.first_cell_wait.ms",
                static_cast<double>(traced_seq.firstCellNs
                                    - traced_seq.startNs)
                    / 1e6,
                "ms");

    const auto wall_sum = [](const PassResult &pass) {
        double total = 0.0;
        for (const CellTiming &timing : pass.timings)
            total += timing.wallSeconds;
        return total;
    };
    const double seq_mean = wall_sum(traced_seq)
        / static_cast<double>(std::max<std::size_t>(
            1, traced_seq.timings.size()));
    const double par_mean = wall_sum(traced_par)
        / static_cast<double>(std::max<std::size_t>(
            1, traced_par.timings.size()));
    metrics.set("runner.cell_inflation",
                seq_mean > 0.0 ? par_mean / seq_mean : 0.0, "ratio");
    const double workers = static_cast<double>(std::min<std::size_t>(
        traced_par.jobs, std::max<std::size_t>(1, traced_par.timings.size())));
    metrics.set("runner.worker_busy_frac",
                traced_par.cellSpanSeconds > 0.0
                    ? wall_sum(traced_par)
                        / (workers * traced_par.cellSpanSeconds)
                    : 0.0,
                "ratio");

    const auto rate = [](const PassResult &pass) {
        return pass.endNs > pass.startNs
            ? static_cast<double>(pass.refs) / pass.seconds()
            : 0.0;
    };
    metrics.set("runner.par_refs_per_s", rate(traced_par), "refs/s");
    metrics.set("runner.par_speedup",
                rate(traced_seq) > 0.0 ? rate(traced_par) / rate(traced_seq)
                                       : 0.0,
                "ratio");

    metrics.set("obs.artifacts.ms",
                static_cast<double>(traced_seq.artifactNs) / 1e6, "ms");
    metrics.set("obs.artifacts.bytes",
                static_cast<double>(traced_seq.artifactBytes), "bytes");
    metrics.set("sim.simulated_refs",
                static_cast<double>(traced_seq.simulatedRefs), "count");
    metrics.set("sim.cells", static_cast<double>(traced_seq.cells.size()),
                "count");
}

void
reportCacheLayers(const TimedCellCache &cache, double resume_ms,
                  Metrics &metrics)
{
    metrics.set("obs.cache.store.ms",
                static_cast<double>(cache.storeNs()) / 1e6, "ms");
    metrics.set("obs.cache.lookup.ms",
                static_cast<double>(cache.lookupNs()) / 1e6, "ms");
    metrics.set("obs.cache.hit_ratio",
                cache.lookups() == 0
                    ? 0.0
                    : static_cast<double>(cache.hits())
                        / static_cast<double>(cache.lookups()),
                "ratio");
    metrics.set("sweep.resume.ms", resume_ms, "ms");
}

TimedCellCache::TimedCellCache(std::shared_ptr<CellCache> inner_arg,
                               Tracer &tracer_arg,
                               std::int64_t parent_arg)
    : inner(std::move(inner_arg)), tracer(tracer_arg), parent(parent_arg)
{}

bool
TimedCellCache::lookup(std::uint64_t key, SimResult &out)
{
    const std::uint64_t start = nowNs();
    const bool hit = inner->lookup(key, out);
    const std::uint64_t end = nowNs();
    tracer.record("obs.cache.lookup", parent, start, end, 1);
    lookupTotalNs += end - start;
    ++lookupCount;
    if (hit)
        ++hitCount;
    return hit;
}

void
TimedCellCache::store(std::uint64_t key, const SimResult &result,
                      double wall_seconds)
{
    const std::uint64_t start = nowNs();
    inner->store(key, result, wall_seconds);
    const std::uint64_t end = nowNs();
    tracer.record("obs.cache.store", parent, start, end, 1);
    storeTotalNs += end - start;
}

} // namespace perfbench
