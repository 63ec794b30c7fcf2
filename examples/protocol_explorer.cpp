/**
 * @file
 * Example: a small CLI to explore any coherence scheme on any
 * workload — a miniature of the paper's whole methodology in one
 * command.
 *
 * The scheme name is parsed into a structured SchemeSpec up front, so
 * typos are rejected with the full list of valid schemes before any
 * trace is generated; DIRSIM_BLOCK_BYTES / DIRSIM_WARMUP_REFS /
 * DIRSIM_SHARING apply via SimConfig::fromEnvironment().
 *
 * Usage: protocol_explorer [scheme] [workload] [refs] [seed]
 *   scheme    Dir1NB | WTI | Dir0B | Dragon | DirNNB | Berkeley |
 *             YenFu | DirCV | Dir<i>B | Dir<i>NB  (default Dir0B)
 *   workload  pops | thor | pero               (default pops)
 *   refs      trace length                     (default 500000)
 *   seed      generator seed                   (default 1)
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "dirsim/dirsim.hh"

int
main(int argc, char **argv)
{
    using namespace dirsim;

    const std::string scheme = argc > 1 ? argv[1] : "Dir0B";
    const std::string workload = argc > 2 ? argv[2] : "pops";
    const std::uint64_t refs =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 500'000;
    const std::uint64_t seed =
        argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;

    try {
        const SchemeSpec spec = parseScheme(scheme);
        const SimConfig config = SimConfig::fromEnvironment();
        const Trace trace = generateTrace(workload, refs, seed);
        // One SimJob through the engine entry point.
        const SimResult result =
            runJob({TraceRef::of(trace), spec, config}).result;
        printRunReport(std::cout, result);
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        std::cerr << "usage: protocol_explorer [scheme] [workload] "
                     "[refs] [seed]\n";
        return 1;
    }
    return 0;
}
