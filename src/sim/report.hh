/**
 * @file
 * Report generation: render experiment results as the text tables
 * the paper's evaluation uses. The repro_* benchmarks and the
 * example CLIs build their output from these helpers, and downstream
 * users get ready-made views of their own runs.
 */

#ifndef DIRSIM_SIM_REPORT_HH
#define DIRSIM_SIM_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/experiment.hh"

namespace dirsim
{

/**
 * Table 4 view: event frequencies (percent of all references) with
 * one column per scheme, in the paper's row order.
 *
 * @param grid per-scheme results (GridResult::schemes, or
 *        toSchemeResults() of a loaded artifacts file)
 * @param paper_layout when true, cells the paper leaves blank for a
 *        scheme (e.g. rm-blk-cln for WTI) print as "-"
 */
TextTable eventFrequencyTable(const std::vector<SchemeResults> &grid,
                              bool paper_layout = false);

/**
 * Table 5 view: the bus-cycle breakdown per memory reference by
 * operation category, plus the cumulative row.
 *
 * @param grid per-scheme results
 * @param costs the bus model to apply
 */
TextTable costBreakdownTable(const std::vector<SchemeResults> &grid,
                             const BusCosts &costs);

/**
 * Figure 1 view: the distribution of other-cache copies on writes to
 * previously-clean blocks, per trace and merged, with ASCII bars.
 *
 * @param scheme one scheme's results (usually Dir0B)
 */
TextTable invalidationHistogramTable(const SchemeResults &scheme);

/**
 * Figure 2/3 view: total cycles per reference on both buses, per
 * scheme (and per trace when @p per_trace is set).
 */
TextTable busCyclesTable(const std::vector<SchemeResults> &grid,
                         bool per_trace = false);

/**
 * One-stop textual report for a single run: event frequencies, both
 * bus costs, transactions, and the Figure-1 summary.
 */
void printRunReport(std::ostream &os, const SimResult &result);

} // namespace dirsim

#endif // DIRSIM_SIM_REPORT_HH
