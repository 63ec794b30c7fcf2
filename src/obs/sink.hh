/**
 * @file
 * JsonlSink: where structured run artifacts go.
 *
 * A sink receives the run manifest, one CellRecord per grid cell (in
 * grid order, so output is deterministic regardless of worker
 * scheduling), and optionally a MetricRegistry snapshot, and writes
 * them as JSON Lines: a "manifest" line, then "cell" lines, then an
 * optional "metrics" line. This is the machine-readable format
 * `dirsim_report` consumes and the BENCH_*.json perf-trajectory
 * files use.
 */

#ifndef DIRSIM_OBS_SINK_HH
#define DIRSIM_OBS_SINK_HH

#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/record.hh"

namespace dirsim
{

/** Streams one run's structured artifacts as JSON Lines. */
class JsonlSink
{
  public:
    /** Write to a caller-owned stream (tests, stdout). */
    explicit JsonlSink(std::ostream &os_arg);

    /** Write to @p path. @throws UsageError when unwritable */
    explicit JsonlSink(const std::string &path);

    /** Called once, before any cell, with the completed manifest. */
    void writeManifest(const RunManifest &manifest);

    /** Called once per grid cell, in grid (scheme-major) order. */
    void writeCell(const CellRecord &record);

    /** Optional registry snapshot. */
    void writeMetrics(const MetricRegistry &metrics);

    /** Flush; further writes are a usage error. */
    void finish();

  private:
    std::ostream &stream();

    std::unique_ptr<std::ofstream> owned;
    std::ostream *os;
    std::string path; ///< for diagnostics; empty for stream sinks
    bool finished = false;
};

} // namespace dirsim

#endif // DIRSIM_OBS_SINK_HH
