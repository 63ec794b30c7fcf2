/**
 * @file
 * Per-layer probes shared by the workloads' traced runs. Each one
 * times calls into one module's public functions and records a span
 * per call, so the per-layer metric is the span total over its count.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/finite_cache.hh"
#include "harness.hh"
#include "sim/job.hh"
#include "trace/trace.hh"
#include "workloads.hh"

namespace perfbench
{

/** The 4 paper schemes followed by the scaling schemes not among
 *  them: every scheme with a sim.cell / sim.finite_cell metric. */
const std::vector<std::string> &cellSchemes();

/** The finite geometry of finite_sweep: 16 KiB, 4-way per cache. */
dirsim::FiniteCacheConfig finiteGeometry();

/**
 * Decode, checksum, and run one cell per cellSchemes() entry per
 * trace, on infinite and on finite caches. Sets sim.decode.*,
 * sim.checksum.*, sim.decoded.bytes_per_ref, sim.cell.* and
 * sim.finite_cell.*.
 */
void probeTraceLayers(const std::vector<const dirsim::Trace *> &traces,
                      Tracer &tracer, Metrics &metrics);

/**
 * SharerStore add / remove / countExcluding at domain 5 (word mode),
 * and at domain 1024 with at most 7 sharers (inline) and with more
 * than 7 (spilled). Sets directory.sharer_store.*.
 */
void probeSharerStore(std::uint64_t seed, bool tiny, Tracer &tracer,
                      Metrics &metrics);

/**
 * Report the pass-level layers of a traced run: first-cell wait, the
 * jobs=nproc throughput and its speedup, cell inflation and worker
 * busy share (par against seq), artifact time and size, and the
 * simulated work.
 */
void reportPassLayers(const PassResult &traced_seq,
                      const PassResult &traced_par, Metrics &metrics);

/**
 * A CellCache that forwards to another, records an obs.cache.lookup /
 * obs.cache.store span around every call, and totals them.
 */
class TimedCellCache : public dirsim::CellCache
{
  public:
    TimedCellCache(std::shared_ptr<dirsim::CellCache> inner_arg,
                   Tracer &tracer_arg, std::int64_t parent_arg);

    bool lookup(std::uint64_t key, dirsim::SimResult &out) override;
    void store(std::uint64_t key, const dirsim::SimResult &result,
               double wall_seconds) override;

    std::uint64_t lookups() const { return lookupCount.load(); }
    std::uint64_t hits() const { return hitCount.load(); }
    std::uint64_t lookupNs() const { return lookupTotalNs.load(); }
    std::uint64_t storeNs() const { return storeTotalNs.load(); }

  private:
    std::shared_ptr<dirsim::CellCache> inner;
    Tracer &tracer;
    std::int64_t parent;
    std::atomic<std::uint64_t> lookupCount{0};
    std::atomic<std::uint64_t> hitCount{0};
    std::atomic<std::uint64_t> lookupTotalNs{0};
    std::atomic<std::uint64_t> storeTotalNs{0};
};

/** Set the obs.cache.* metrics from the stores and lookups that went
 *  through @p cache, and sweep.resume.ms from the resume pass. */
void reportCacheLayers(const TimedCellCache &cache, double resume_ms,
                       Metrics &metrics);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
