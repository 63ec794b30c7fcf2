/**
 * @file
 * Shared infrastructure for the `repro` driver and the ext_* studies.
 *
 * Each binary runs on the standard synthetic suite (sim/suite.hh).
 * Trace length defaults to the suite default and can be raised to
 * paper scale (3.2M refs) via the DIRSIM_SUITE_REFS environment
 * variable.
 */

#ifndef DIRSIM_BENCH_BENCH_COMMON_HH
#define DIRSIM_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "dirsim/dirsim.hh"

namespace dirsim::bench
{

/**
 * Parse the shared bench command line. Supported:
 *   --jsonl <path>   record the first experiment grid this process
 *                    runs as structured artifacts (manifest + cell
 *                    records + metrics, obs/sink.hh) at <path>
 *   --chrome <path>  export the first grid as a Chrome trace_event
 *                    timeline (obs/chrome_trace.hh) at <path>
 * Any other option is a usage error, and so is any positional
 * argument unless @p operands names them. Call first thing in main().
 *
 * The grids also honor DIRSIM_PROGRESS=1 (live stderr HUD,
 * obs/progress.hh) and DIRSIM_TRACE_SAMPLE=<period> (coherence event
 * tracer, obs/tracer.hh; its distributions land in the --jsonl
 * metrics and its sampled events in the --chrome timeline).
 *
 * @param operands the usage text of the positional arguments the
 *        binary takes; empty when it takes none
 * @return the positional arguments, in order
 */
std::vector<std::string> initArtifacts(int argc, char **argv,
                                       const std::string &operands = "");

/** Print the standard banner naming the reproduced artifact. */
void banner(const std::string &artifact, const std::string &caption);

/** The standard suite (generated once per process, then cached). */
const std::vector<Trace> &suite();

/**
 * Grid of the paper's four schemes over the suite (cached). Runs on
 * the parallel ExperimentRunner — DIRSIM_JOBS workers (default: all
 * hardware threads) — and reports wall time and throughput on stderr.
 */
const std::vector<SchemeResults> &paperGrid();

/** Grid over the suite for arbitrary schemes (uncached, parallel). */
std::vector<SchemeResults> gridFor(
    const std::vector<std::string> &schemes);

} // namespace dirsim::bench

#endif // DIRSIM_BENCH_BENCH_COMMON_HH
