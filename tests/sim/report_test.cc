/** @file Unit tests for sim/report.hh. */

#include <gtest/gtest.h>

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
    const TextTable table =
        eventFrequencyTable(smallGrid(), /* paper_layout */ true);
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
    const TextTable averaged = busCyclesTable(smallGrid());
    EXPECT_EQ(averaged.rows(), 3u);
    const TextTable per_trace = busCyclesTable(smallGrid(), true);
    EXPECT_EQ(per_trace.rows(), 9u); // 3 schemes x 3 traces
}

TEST(ReportTest, RunReportMentionsKeyFacts)
{
    const SimResult &result = smallGrid().front().perTrace.front();
    std::ostringstream os;
    printRunReport(os, result);
    const std::string out = os.str();
    EXPECT_NE(out.find("Dir0B"), std::string::npos);
    EXPECT_NE(out.find("pops"), std::string::npos);
    EXPECT_NE(out.find("pipelined"), std::string::npos);
    EXPECT_NE(out.find("non-pipelined"), std::string::npos);
    EXPECT_NE(out.find("<=1 remote copy"), std::string::npos);
}

TEST(ReportTest, EmptyGridRejected)
{
    EXPECT_THROW(eventFrequencyTable({}), UsageError);
    EXPECT_THROW(costBreakdownTable({}, paperPipelinedCosts()),
                 UsageError);
    EXPECT_THROW(busCyclesTable({}), UsageError);
}

} // namespace
} // namespace dirsim
