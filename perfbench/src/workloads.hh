/**
 * @file
 * The benchmark's workloads and the per-layer probes they share.
 *
 * A workload prepares its inputs once (setup), then runs timed
 * end-to-end passes: from inputs in hand to artifacts written, at a
 * given job count. Its traced run times each layer separately by
 * calling the modules' public functions from here, so the library
 * itself carries no benchmark code.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/runner.hh"

namespace perfbench
{

class TimedCellCache;

/** How a run was invoked. */
struct Options
{
    std::uint64_t seed = 0;
    /** A few thousand references per trace instead of the full size:
     *  for the harness self-test only. */
    bool tiny = false;
    /** Scratch directory for artifacts, caches and span files. */
    std::string workdir;
    /** Worker threads of the parallel passes. */
    unsigned jobs = 1;
};

/** What one end-to-end pass did. */
struct PassResult
{
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Cell references covered, simulated or replayed. */
    std::uint64_t refs = 0;
    std::uint64_t simulatedRefs = 0;
    std::vector<CellDigest> cells;
    /** Timings of the cells that simulated (a sweep's cold pass). */
    std::vector<dirsim::CellTiming> timings;
    /** Wall time of the span the simulated cells ran in. */
    double cellSpanSeconds = 0.0;
    /** First simulated cell's start on the nowNs() clock. */
    std::uint64_t firstCellNs = 0;
    unsigned jobs = 1;
    /** Trace decode and checksum before the first cell (a grid's
     *  GridResult::setupPhases; 0 for a sweep, probed separately). */
    std::uint64_t planNs = 0;
    std::uint64_t artifactNs = 0;
    std::uint64_t artifactBytes = 0;
    /** A sweep's resume pass (cold pass + resume = the whole pass). */
    std::uint64_t resumeNs = 0;
    /** The timed cell cache of a traced sweep pass. */
    std::shared_ptr<TimedCellCache> timedCache;

    double seconds() const { return secondsBetween(startNs, endNs); }
};

/**
 * Run @p pass and check its cells; a pass that throws counts as
 * @p expected failed cells and yields an empty result.
 */
PassResult runChecked(const std::string &label, std::size_t expected,
                      Checker &checker,
                      const std::function<PassResult()> &pass);

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Cells one pass produces (and the checker expects). */
    virtual std::size_t cellsPerPass() const = 0;
    /** References per generated trace (keys the golden digests). */
    virtual std::uint64_t refsPerTrace() const = 0;

    /** Prepare the inputs; the caller times this as setup_s. */
    virtual void setup(Tracer &tracer) = 0;

    /** One end-to-end pass at @p jobs workers; spans go to @p tracer
     *  (a disabled tracer for the timed passes). */
    virtual PassResult pass(unsigned jobs, Tracer &tracer) = 0;

    /**
     * The traced run: time every layer, then report the per-layer
     * metrics into @p metrics. Every pass it makes is checked.
     */
    virtual void traceRun(Tracer &tracer, Metrics &metrics,
                          Checker &checker) = 0;
};

/** The workloads by name: paper_grid, scale1024_grid, finite_sweep. */
const std::vector<std::string> &workloadNames();

/** The seed a workload uses when none is given (BENCH_8's inputs). */
std::uint64_t defaultSeed(const std::string &workload);

/** @throws std::invalid_argument on an unknown name */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Options &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
