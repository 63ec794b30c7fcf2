/**
 * @file
 * Extension: finite caches, two ways.
 *
 * The paper argues (Section 4) that finite-cache performance "can be
 * estimated to first order by adding the costs due to the finite
 * cache size" to the infinite-cache coherence costs. This bench
 * tests that claim directly:
 *
 *  1. FIRST-ORDER ESTIMATE — per-process set-associative caches
 *     (coherence-free) measure the extra capacity/conflict miss rate
 *     over the infinite cache; that rate is charged at the memory
 *     access cost on top of the infinite-cache coherence costs.
 *
 *  2. TRUE SIMULATION — the protocols themselves run on FiniteCaches
 *     (replacement interacts with coherence: evicted dirty blocks
 *     write back, evicted copies re-miss and re-join directories).
 *
 * Agreement between the two validates the paper's methodology of
 * studying coherence cost on infinite caches.
 */

#include <iostream>
#include <unordered_map>
#include <unordered_set>

#include "common/bench_common.hh"

namespace
{

using namespace dirsim;

/** Finite-cache data miss rate of a trace (per-process caches). */
double
finiteMissRate(const Trace &trace, const FiniteCacheConfig &config)
{
    std::unordered_map<ProcId, FiniteCache> caches;
    std::uint64_t misses = 0;
    for (const auto &record : trace) {
        if (!record.isData())
            continue;
        auto [it, inserted] = caches.try_emplace(record.pid, config);
        FiniteCache &cache = it->second;
        const BlockNum block =
            blockNumber(record.addr, config.blockBytes);
        if (cache.access(block) == stateNotPresent) {
            ++misses;
            cache.set(block, 1);
        }
    }
    return static_cast<double>(misses)
        / static_cast<double>(trace.size());
}

/** Infinite-cache (compulsory-only, per process) miss rate. */
double
infiniteMissRate(const Trace &trace)
{
    std::unordered_set<std::uint64_t> seen;
    std::uint64_t misses = 0;
    for (const auto &record : trace) {
        if (!record.isData())
            continue;
        const BlockNum block =
            blockNumber(record.addr, defaultBlockBytes);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(record.pid) << 40) ^ block;
        misses += seen.insert(key).second ? 1 : 0;
    }
    return static_cast<double>(misses)
        / static_cast<double>(trace.size());
}

} // namespace

int
main(int argc, char **argv)
{
    dirsim::bench::initArtifacts(argc, argv);
    bench::banner("Extension: finite caches",
                  "First-order estimate vs true finite-cache "
                  "simulation (pipelined bus)");

    const BusCosts costs = paperPipelinedCosts();
    const std::vector<std::string> schemes{"Dir0B", "Dragon", "WTI",
                                           "Dir1NB"};
    const auto grid = bench::gridFor(schemes);

    TextTable table({"cache", "scheme", "infinite", "estimate",
                     "simulated", "est err"});
    for (const std::uint64_t kib : {16ull, 64ull, 256ull}) {
        FiniteCacheConfig cache_config;
        cache_config.capacityBytes = kib * 1024;
        cache_config.ways = 4;

        // First-order correction, averaged over traces.
        double extra = 0.0;
        for (const auto &trace : bench::suite()) {
            extra += finiteMissRate(trace, cache_config)
                - infiniteMissRate(trace);
        }
        extra /= static_cast<double>(bench::suite().size());
        extra = std::max(extra, 0.0);

        for (const auto &scheme_name : schemes) {
            const auto &scheme = *findScheme(grid, scheme_name);
            const double infinite =
                scheme.averagedCost(costs).total();
            const double estimate =
                infinite + extra * costs.memoryAccess;

            // True finite-cache protocol simulation.
            SimConfig config;
            config.finiteCache = cache_config;
            std::vector<CycleBreakdown> per_trace;
            for (const auto &trace : bench::suite()) {
                const SimResult result =
                    simulateTrace(trace, parseScheme(scheme_name), config);
                per_trace.push_back(
                    costFromOps(result.ops, result.totalRefs, costs));
            }
            const double simulated =
                averageBreakdowns(per_trace).total();

            table.addRow({
                std::to_string(kib) + " KiB",
                scheme_name,
                cyc(infinite),
                cyc(estimate),
                cyc(simulated),
                TextTable::pct(
                    100.0 * (estimate - simulated)
                        / std::max(simulated, 1e-12), 1),
            });
        }
        table.addRule();
    }
    table.print(std::cout);

    std::cout << "\nReading guide: the paper's first-order method "
                 "(infinite-cache coherence\ncost + capacity misses at "
                 "the memory-access cost) should approximate the\n"
                 "true finite simulation; residual error comes from "
                 "eviction write-backs\nand from invalidation misses "
                 "the finite cache would have evicted anyway\n(the "
                 "paper's own footnote 2).\n";
    return 0;
}
