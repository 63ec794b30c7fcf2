/**
 * @file
 * Benchmark plumbing shared by every workload: the in-memory span
 * log of a traced run, the metric table a run prints, the per-cell
 * correctness gate, and the host shape stamped on every record.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "protocols/events.hh"

namespace perfbench
{

/** Monotonic clock in nanoseconds (the library's PhaseTimer clock). */
std::uint64_t nowNs();

/** Seconds between two nowNs() stamps. */
double secondsBetween(std::uint64_t start_ns, std::uint64_t end_ns);

/** The CPUs the calling thread may run on. */
std::vector<int> allowedCpus();

/** Online CPUs this process may run on (what `nproc` prints). */
unsigned availableCpus();

/**
 * Pin the calling thread to whichever of @p cpus runs a short fixed
 * loop fastest right now, and return it (-1 when none could be
 * pinned). Other tenants of a shared host slow some vCPUs more than
 * others, and which ones changes within seconds. Threads the caller
 * starts afterwards inherit the pin.
 */
int pinToQuietestCpu(const std::vector<int> &cpus);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** One finished span: a named interval, the span that caused it, and
 *  a count of the work units it covered (references, cells, ops). */
struct Span
{
    std::string name;
    /** Index of the parent span; -1 for a root. */
    std::int64_t parent = -1;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t count = 0;
};

/**
 * The span log of one traced run. Spans stay in memory and are
 * written out once the run ends. A disabled tracer records nothing,
 * which is what the untraced end-to-end passes use. Thread-safe:
 * worker callbacks record into it concurrently.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled_arg) : on(enabled_arg) {}

    bool enabled() const { return on; }

    /** Record a finished span; returns its index (-1 when disabled). */
    std::int64_t record(std::string name, std::int64_t parent,
                        std::uint64_t start_ns, std::uint64_t end_ns,
                        std::uint64_t count = 0);

    /**
     * A span open for the lifetime of this object, parented to the
     * innermost Scope still open (Scopes nest on the calling thread).
     */
    class Scope
    {
      public:
        Scope(Tracer &tracer_arg, std::string name_arg);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Work units the span covered. */
        void setCount(std::uint64_t n) { count = n; }
        /** This span's index, for children recorded by callbacks. */
        std::int64_t id() const { return index; }

      private:
        Tracer &tracer;
        std::string name;
        std::int64_t parent;
        std::int64_t index;
        std::uint64_t startNs;
        std::uint64_t count = 0;
    };

    /** Summed duration (ns) and count of every span named @p name. */
    std::uint64_t totalNs(const std::string &name) const;
    std::uint64_t totalCount(const std::string &name) const;
    /** Summed ns per counted unit over spans named @p name. */
    double nsPerUnit(const std::string &name) const;

    /** Write the spans as Chrome trace-event JSON, one lane, with each
     *  span's id, parent and count in its args. */
    void writeChromeTrace(const std::string &path) const;

  private:
    bool on;
    mutable std::mutex mutex;
    std::vector<Span> log;
    /** Open Scopes (entered and left on the driving thread). */
    std::vector<std::int64_t> open;
};

/** Metric name -> (value, unit), printed in name order. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    /** The result line: {"correct","attempted","failed","metrics"}. */
    std::string resultJson(bool correct, std::uint64_t attempted,
                           std::uint64_t failed) const;

  private:
    std::map<std::string, std::pair<double, std::string>> values;
};

/** FNV-1a 64 over a cell's event counters, operation counters and
 *  Figure 1 clean-write histogram. */
std::uint64_t cellDigest(const dirsim::EventCounts &events,
                         const dirsim::OpCounts &ops,
                         const dirsim::Histogram &clean_write_holders);

/** A cell's identity ("<scheme>/<trace>") and counter digest. */
struct CellDigest
{
    std::string key;
    std::uint64_t digest = 0;
};

/** Golden digests by cell key. */
using GoldenCells = std::map<std::string, std::uint64_t>;

/**
 * The correctness gate. Every cell of every pass is checked against
 * the committed golden digests when they apply (default seed, full
 * size), and otherwise against the first pass checked, so the jobs=1
 * and jobs=N passes (and a sweep's cold and resume passes) must agree
 * cell for cell on any seed.
 */
class Checker
{
  public:
    /** @param golden committed digests, or nullptr when none apply */
    explicit Checker(const GoldenCells *golden);

    /** Check one pass; @p expected is the cell count it must have. */
    void check(const std::string &pass,
               const std::vector<CellDigest> &cells,
               std::size_t expected);

    /** Count a pass that threw as @p expected failed cells. */
    void failPass(const std::string &pass, std::size_t expected,
                  const std::string &what);

    std::uint64_t attempted() const { return attemptedCells; }
    std::uint64_t failed() const { return failedCells; }

  private:
    void fail(const std::string &pass, const std::string &cell,
              const std::string &why);

    GoldenCells reference;
    bool haveReference = false;
    std::uint64_t attemptedCells = 0;
    std::uint64_t failedCells = 0;
};

/** Read the golden digests of @p workload from @p path; empty when
 *  the file has none recorded for this (seed, refs) pair. */
GoldenCells loadGolden(const std::string &path,
                       const std::string &workload, std::uint64_t seed,
                       std::uint64_t refs);

/** The build and host shape as one JSON object. */
std::string hostJson(const std::string &commit, bool traced);

/** False when the benchmark binary was built without optimization. */
bool optimizedBuild();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
