/** @file Unit tests for sim/report.hh. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/suite.hh"

namespace dirsim
{
namespace
{

const std::vector<SchemeResults> &
smallGrid()
{
    static const std::vector<SchemeResults> grid = [] {
        SuiteParams params;
        params.refsPerTrace = 30'000;
        params.seed = 21;
        return ExperimentRunner()
            .run(parseSchemes({"Dir0B", "Dragon", "WTI"}),
                 standardSuite(params))
            .schemes;
    }();
    return grid;
}

/** The paper grid with its schemes in reverse order. */
const std::vector<SchemeResults> &
reversedPaperGrid()
{
    static const std::vector<SchemeResults> grid = [] {
        SuiteParams params;
        params.refsPerTrace = 30'000;
        params.seed = 21;
        return ExperimentRunner()
            .run(parseSchemes({"Dragon", "Dir0B", "WTI", "Dir1NB"}),
                 standardSuite(params))
            .schemes;
    }();
    return grid;
}

/** The named view's section over @p grid. */
std::string
renderView(const std::string &name,
           const std::vector<SchemeResults> &grid)
{
    std::ostringstream os;
    printView(os, *findView(name), grid);
    return os.str();
}

/** The whitespace-separated cells of the line that starts with
 *  @p prefix. */
std::vector<std::string>
cellsOf(const std::string &text, const std::string &prefix)
{
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind(prefix, 0) != 0)
            continue;
        std::istringstream words(line);
        std::vector<std::string> cells;
        for (std::string word; words >> word;)
            cells.push_back(word);
        return cells;
    }
    ADD_FAILURE() << "no line starts with '" << prefix << "'";
    return {};
}

/** A published number as the views print it. */
std::string
paperText(double value, int digits)
{
    return std::isnan(value) ? "-" : TextTable::fixed(value, digits);
}

TEST(ReportTest, PublishedValuesFollowTheirSchemeInAnyOrder)
{
    const auto &grid = reversedPaperGrid();

    // Table 4: each "(paper)" column follows its scheme's column.
    const std::string table4 = eventFrequencyTable(grid).toString();
    const std::vector<std::string> header = cellsOf(table4, "Event");
    ASSERT_EQ(header.size(), 9u);
    for (std::size_t e = 0; e < numEventTypes; ++e) {
        const auto event = static_cast<EventType>(e);
        const std::vector<std::string> row =
            cellsOf(table4, std::string(toString(event)) + " ");
        ASSERT_EQ(row.size(), header.size()) << toString(event);
        for (std::size_t col = 1; col < header.size(); col += 2) {
            EXPECT_EQ(header[col + 1], "(paper)");
            EXPECT_EQ(row[col + 1],
                      paperText(publishedScheme(header[col])
                                    ->eventPercent[e],
                                2))
                << header[col] << ' ' << toString(event);
        }
    }

    // Table 5: the published cumulative row, column by column.
    const std::string table5 = renderView("table5", grid);
    const std::vector<std::string> schemes =
        cellsOf(table5, "Access type");
    const std::vector<std::string> paper_row =
        cellsOf(table5, "(paper cumulative)");
    ASSERT_EQ(schemes.size(), 6u);
    ASSERT_EQ(paper_row.size(), 6u);
    for (std::size_t col = 2; col < schemes.size(); ++col) {
        EXPECT_EQ(paper_row[col],
                  paperText(publishedScheme(schemes[col])->cyclesPerRef,
                            4))
            << schemes[col];
    }

    // Figure 2: paper(pipe) on each scheme's own row.
    const std::string fig2 = renderView("fig2", grid);
    for (const SchemeResults &scheme : grid) {
        const std::vector<std::string> row =
            cellsOf(fig2, scheme.scheme + " ");
        ASSERT_GE(row.size(), 5u);
        EXPECT_EQ(row[4],
                  paperText(publishedScheme(scheme.scheme)->cyclesPerRef,
                            4))
            << scheme.scheme;
    }

    // Section 5.1: each linear model quotes its own scheme's paper
    // model, and the q table's columns follow the grid.
    const std::string sec51 = renderView("sec5.1", grid);
    const BusCosts pipe = paperPipelinedCosts();
    for (const SchemeResults &scheme : grid) {
        const std::vector<std::string> model =
            cellsOf(sec51, "  " + scheme.scheme + ":");
        const PublishedScheme &paper = *publishedScheme(scheme.scheme);
        if (std::isnan(paper.transactionsPerRef)) {
            EXPECT_EQ(model.size(), 6u) << scheme.scheme;
            continue;
        }
        ASSERT_EQ(model.size(), 10u) << scheme.scheme;
        EXPECT_EQ(model[7], TextTable::fixed(paper.cyclesPerRef, 4));
        EXPECT_EQ(model[9],
                  TextTable::fixed(paper.transactionsPerRef, 4) + "q)");
    }
    const std::vector<std::string> q_header = cellsOf(sec51, "q ");
    const std::vector<std::string> q0 = cellsOf(sec51, "0.0 ");
    ASSERT_EQ(q_header.size(), grid.size() + 2);
    ASSERT_EQ(q0.size(), q_header.size());
    for (std::size_t s = 0; s < grid.size(); ++s) {
        EXPECT_EQ(q_header[s + 1], grid[s].scheme);
        EXPECT_EQ(q0[s + 1],
                  TextTable::fixed(grid[s].averagedCost(pipe).total(),
                                   4));
    }
}

TEST(ReportTest, EventTableHasAllRowsAndColumns)
{
    const TextTable table = eventFrequencyTable(smallGrid());
    EXPECT_EQ(table.rows(), numEventTypes);
    const std::string out = table.toString();
    EXPECT_NE(out.find("Dir0B"), std::string::npos);
    EXPECT_NE(out.find("Dragon"), std::string::npos);
    EXPECT_NE(out.find("rm-blk-cln"), std::string::npos);
}

TEST(ReportTest, PaperLayoutBlanksInapplicableCells)
{
    const TextTable table = eventFrequencyTable(smallGrid());
    const std::string out = table.toString();
    // WTI has no dirty state: the rm-blk-drty row must contain "-".
    const auto row_pos = out.find("rm-blk-drty");
    ASSERT_NE(row_pos, std::string::npos);
    const auto line_end = out.find('\n', row_pos);
    const std::string row = out.substr(row_pos, line_end - row_pos);
    EXPECT_NE(row.find('-'), std::string::npos);
}

TEST(ReportTest, CostTableHasBreakdownRows)
{
    const TextTable table =
        costBreakdownTable(smallGrid(), paperPipelinedCosts());
    const std::string out = table.toString();
    for (const char *row : {"invalidate", "write-back", "mem access",
                            "wt or wup", "dir access", "cumulative"})
        EXPECT_NE(out.find(row), std::string::npos) << row;
}

TEST(ReportTest, HistogramTableCoversTraces)
{
    const TextTable table =
        invalidationHistogramTable(smallGrid().front());
    const std::string out = table.toString();
    EXPECT_NE(out.find("pops"), std::string::npos);
    EXPECT_NE(out.find("pero"), std::string::npos);
    EXPECT_NE(out.find("merged"), std::string::npos);
}

TEST(ReportTest, BusCyclesTableBothShapes)
{
    const TextTable averaged = busCyclesAveragedTable(smallGrid());
    EXPECT_EQ(averaged.rows(), 3u);
    const TextTable per_trace = busCyclesPerTraceTable(smallGrid());
    EXPECT_EQ(per_trace.rows(), 9u); // 3 schemes x 3 traces
}

TEST(ReportTest, TraceStatsTableHasEveryFieldWithinEightyColumns)
{
    // The full-size suite: its counts are the widest Table 3 prints.
    std::vector<TraceStats> stats;
    for (const char *name : {"pops", "thor", "pero"}) {
        TraceStats trace;
        trace.name = name;
        trace.numCpus = 4;
        trace.numProcesses = 12;
        trace.refs = trace.instr = trace.dataReads = trace.dataWrites =
            trace.user = trace.sys = trace.lockSpinReads =
                trace.lockWrites = trace.dataBlocks =
                    trace.sharedDataBlocks = 1'500'000;
        stats.push_back(trace);
    }
    stats[1].dataWrites = 4;
    const TextTable table = traceStatsTable(stats);
    EXPECT_EQ(table.rows(), 17u); // 16 metrics and the rule
    const std::string out = table.toString();
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);)
        EXPECT_LE(line.size(), 79u) << line;
    EXPECT_EQ(cellsOf(out, "Trace"),
              (std::vector<std::string>{"Trace", "pops", "thor", "pero"}));
    EXPECT_EQ(cellsOf(out, "DRd/DWrt"),
              (std::vector<std::string>{"DRd/DWrt", "1.00", "375000.00",
                                        "1.00"}));
    for (const char *row :
         {"Refs", "Instr", "DRd", "DWrt", "User", "Sys", "spin/DRd",
          "cpus", "processes", "lock spin reads", "lock writes",
          "Sys/Refs", "data blocks", "shared data blocks",
          "shared/data blocks"})
        EXPECT_NE(out.find(std::string("\n") + row + " "),
                  std::string::npos)
            << row;
}

TEST(ReportTest, EmptyGridRejected)
{
    EXPECT_THROW(eventFrequencyTable({}), UsageError);
    EXPECT_THROW(costBreakdownTable({}, paperPipelinedCosts()),
                 UsageError);
    EXPECT_THROW(busCyclesAveragedTable({}), UsageError);
    EXPECT_THROW(busCyclesPerTraceTable({}), UsageError);
}

} // namespace
} // namespace dirsim
