/**
 * @file
 * The paper's evaluation as named views over experiment results, and
 * the paper's published numbers that the views print beside the
 * measured ones.
 *
 * Each artifact that comes from one grid (Table 4, Table 5, Figures
 * 1-5, Sections 5.1 and 6) is one ReportView, printed through
 * printView(). The `repro` driver, `dirsim_report`, `dirsim_sweep
 * report` and `trace_tool simulate` all print through it, so one grid
 * renders to the same bytes wherever it is printed. Table 3 comes
 * from trace statistics, not a grid: traceStatsTable() renders it.
 * published() is the one copy of the paper's numbers in the tree;
 * the views, the benches and the golden-number test read it.
 */

#ifndef DIRSIM_SIM_REPORT_HH
#define DIRSIM_SIM_REPORT_HH

#include <array>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/experiment.hh"
#include "trace/trace_stats.hh"

namespace dirsim
{

/** Marks a number the paper does not publish. */
inline constexpr double unpublished =
    std::numeric_limits<double>::quiet_NaN();

/** What the paper publishes about one scheme; unpublished elsewhere. */
struct PublishedScheme
{
    std::string scheme;
    /** Table 4: event frequencies in percent of all references,
     *  indexed by EventType. */
    std::array<double, numEventTypes> eventPercent = [] {
        std::array<double, numEventTypes> none{};
        none.fill(unpublished);
        return none;
    }();
    /** Pipelined bus cycles per reference: Table 5's cumulative row,
     *  or Section 6 for the schemes Table 5 leaves out. */
    double cyclesPerRef = unpublished;
    /** Table 5: the directory-access part of cyclesPerRef. */
    double dirAccess = unpublished;
    /** Section 5.1: bus transactions per reference, the coefficient
     *  of the per-transaction overhead q. */
    double transactionsPerRef = unpublished;
    /** Section 5.2: cyclesPerRef with lock references excluded. */
    double cyclesWithoutLocks = unpublished;
    /** Section 6 (Dir1B): cycles per reference as
     *  cyclesWithoutBroadcasts + cyclesPerBroadcastCycle * b, for a
     *  broadcast that costs b cycles. */
    double cyclesWithoutBroadcasts = unpublished;
    double cyclesPerBroadcastCycle = unpublished;
};

/** The paper's published numbers. */
struct PublishedNumbers
{
    /** One entry per scheme the paper reports numbers for. */
    std::vector<PublishedScheme> schemes;
    /** Table 2: bus cycle costs per operation (the fields the table
     *  lists; dirtySupplyRequest is not one of them). */
    BusCosts pipelined;
    BusCosts nonPipelined;
    /** Figure 1: writes to previously-clean blocks that invalidate
     *  at most one cache are "over" this share. */
    double cleanWritesAtMostOneInval = unpublished;
    /** Section 5: coherence-related share of Dir0B's data misses. */
    double coherenceMissShare = unpublished;
    /** Section 5's shared-bus estimate: processors of estimateMips on
     *  a bus of estimateBusCycleNs support about estimateProcessors
     *  effective processors under the best scheme. */
    double estimateMips = unpublished;
    double estimateBusCycleNs = unpublished;
    double estimateProcessors = unpublished;
};

/** The one copy of the paper's published numbers. */
const PublishedNumbers &published();

/** @p scheme's published numbers; nullptr when the paper has none. */
const PublishedScheme *publishedScheme(const std::string &scheme);

/** Cycles per reference as the paper prints them ("0.0491"). */
std::string cyc(double value);

/** A fraction as a percentage with Table 4's two decimals ("36.00"). */
std::string pct(double fraction);

/**
 * Table 4: event frequencies (percent of all references, averaged
 * over traces), one column per scheme, each followed by a "(paper)"
 * column when the paper measured that scheme. Cells the paper leaves
 * blank for a scheme (e.g. rm-blk-cln for WTI) print as "-".
 *
 * @param grid per-scheme results (GridResult::schemes, or
 *        toSchemeResults() of a loaded artifacts file)
 */
TextTable eventFrequencyTable(const std::vector<SchemeResults> &grid);

/**
 * Table 5: bus cycles per memory reference by operation category,
 * plus the cumulative row.
 *
 * @param grid per-scheme results
 * @param costs the bus model to apply
 */
TextTable costBreakdownTable(const std::vector<SchemeResults> &grid,
                             const BusCosts &costs);

/**
 * Figure 1: percent of writes to previously-clean blocks that
 * invalidate k other caches, per trace and merged, with ASCII bars.
 *
 * @param scheme one scheme's results (usually Dir0B)
 */
TextTable invalidationHistogramTable(const SchemeResults &scheme);

/**
 * Figure 2: cycles per reference on both buses averaged over traces,
 * transactions per reference, and the paper's pipelined total.
 */
TextTable busCyclesAveragedTable(const std::vector<SchemeResults> &grid);

/** Figure 3: cycles per reference on both buses for each trace. */
TextTable busCyclesPerTraceTable(const std::vector<SchemeResults> &grid);

/** A paper artifact rendered from one grid's results. */
struct ReportView
{
    /** Artifact name, the `repro` driver's argument ("table4"). */
    std::string name;
    /** The section's first line ("Table 4: ..."). */
    std::string title;
    /** The schemes the view reads; empty means any. */
    std::vector<std::string> schemes;
    /** Print the section below the title. */
    void (*body)(std::ostream &os,
                 const std::vector<SchemeResults> &grid);
};

/** Every grid view, in paper order. */
const std::vector<ReportView> &reportViews();

/** The view named @p name; nullptr when there is none. */
const ReportView *findView(const std::string &name);

/**
 * Print @p view's section over @p grid: the title, the body and a
 * blank line. Prints nothing when @p grid lacks a scheme the view
 * reads, or when the body is empty (Figure 1 over schemes that
 * record no samples).
 */
void printView(std::ostream &os, const ReportView &view,
               const std::vector<SchemeResults> &grid);

/**
 * Table 3: trace characteristics, one row per metric and one column
 * per trace. The paper's columns (Refs, Instr, DRd, DWrt, User, Sys,
 * DRd/DWrt, spin/DRd) lead, then every other TraceStats field. The
 * one rendering of TraceStats, for `repro table3` and `trace_tool
 * stats`.
 */
TextTable traceStatsTable(const std::vector<TraceStats> &traces);

} // namespace dirsim

#endif // DIRSIM_SIM_REPORT_HH
