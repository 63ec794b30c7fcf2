/**
 * @file
 * Umbrella header: the full public API of dirsim, a trace-driven
 * simulator reproducing "An Evaluation of Directory Schemes for Cache
 * Coherence" (Agarwal, Simoni, Hennessy, Horowitz).
 *
 * Typical use:
 * @code
 *   #include "dirsim/dirsim.hh"
 *
 *   auto trace  = dirsim::generateTrace("pops", 1'000'000, 42);
 *   auto result = dirsim::simulateTrace(trace, dirsim::parseScheme("Dir0B"));
 *   auto cost   = result.cost(dirsim::paperPipelinedCosts());
 *   std::cout << cost.total() << " bus cycles per reference\n";
 * @endcode
 */

#ifndef DIRSIM_DIRSIM_HH
#define DIRSIM_DIRSIM_HH

#include "bus/bus_model.hh"
#include "bus/cost_model.hh"
#include "bus/latency_model.hh"
#include "bus/timing.hh"
#include "cache/finite_cache.hh"
#include "cache/infinite_cache.hh"
#include "common/bitops.hh"
#include "common/env.hh"
#include "common/histogram.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/types.hh"
#include "directory/coarse_vector.hh"
#include "directory/full_map.hh"
#include "directory/limited.hh"
#include "directory/sharer_set.hh"
#include "directory/storage.hh"
#include "directory/two_bit.hh"
#include "obs/artifacts.hh"
#include "obs/cell_cache.hh"
#include "obs/chrome_trace.hh"
#include "obs/exposition.hh"
#include "obs/journal.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/phase.hh"
#include "obs/progress.hh"
#include "obs/record.hh"
#include "obs/sink.hh"
#include "obs/tracer.hh"
#include "protocols/berkeley.hh"
#include "protocols/dir0_b.hh"
#include "protocols/dir1_nb.hh"
#include "protocols/dir_cv.hh"
#include "protocols/dir_i_b.hh"
#include "protocols/dir_i_nb.hh"
#include "protocols/dir_n_nb.hh"
#include "protocols/dragon.hh"
#include "protocols/events.hh"
#include "protocols/protocol.hh"
#include "protocols/registry.hh"
#include "protocols/wti.hh"
#include "protocols/yen_fu.hh"
#include "sim/decoded.hh"
#include "sim/experiment.hh"
#include "sim/job.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/scaling.hh"
#include "serve/client.hh"
#include "serve/discipline.hh"
#include "serve/http.hh"
#include "serve/server.hh"
#include "sim/simulator.hh"
#include "sim/suite.hh"
#include "sweep/expand.hh"
#include "sweep/run.hh"
#include "sweep/spec.hh"
#include "trace/filter.hh"
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/record.hh"
#include "trace/source.hh"
#include "trace/trace.hh"
#include "trace/trace_stats.hh"
#include "trace/writer.hh"
#include "tracegen/generator.hh"
#include "tracegen/profile.hh"
#include "tracegen/segments.hh"

#endif // DIRSIM_DIRSIM_HH
