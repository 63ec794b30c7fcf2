/**
 * @file
 * Tests for the Prometheus text exposition (obs/exposition.hh):
 * name sanitization, label escaping, registry rendering, histogram
 * bucket cumulativity, and the format linter the daemon's /metrics
 * output is held to.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.hh"
#include "common/logging.hh"
#include "obs/exposition.hh"
#include "obs/metrics.hh"

namespace dirsim
{
namespace
{

TEST(PromNameTest, DottedNamesSanitize)
{
    EXPECT_EQ(promMetricName("sim.pops.Dir0B.events.rd_hit"),
              "sim_pops_Dir0B_events_rd_hit");
    EXPECT_EQ(promMetricName("runner.cache.hits"),
              "runner_cache_hits");
    EXPECT_EQ(promMetricName("already_clean:name"),
              "already_clean:name");
}

TEST(PromNameTest, HostileNamesSanitize)
{
    // Escaped/dotted registry names (metrics.hh escapeSegment emits
    // %-escapes) still come out grammar-clean.
    EXPECT_EQ(promMetricName("trace.pops%2efast.refs"),
              "trace_pops_2efast_refs");
    EXPECT_EQ(promMetricName("9lives"), "_9lives");
    EXPECT_EQ(promMetricName(""), "_");
    EXPECT_EQ(promMetricName("a b\tc-d"), "a_b_c_d");
}

TEST(PromNameTest, LabelValuesEscape)
{
    EXPECT_EQ(promEscapeLabelValue("plain"), "plain");
    EXPECT_EQ(promEscapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(promEscapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(promEscapeLabelValue("a\nb"), "a\\nb");
}

TEST(PromWriterTest, HistogramBucketsAreCumulative)
{
    Histogram hist;
    hist.add(0, 2); // bucket 0
    hist.add(1, 3); // bucket 1
    hist.add(3, 1); // bucket 3
    hist.add(9, 5); // past the last bound

    std::ostringstream os;
    PromWriter writer(os);
    writer.type("wait_seconds", "histogram");
    writer.histogram("wait_seconds", {{"discipline", "fcfs"}}, hist,
                     {0.5, 1.0, 2.0, 4.0}, 1.5);
    const std::string text = os.str();

    EXPECT_NE(text.find("wait_seconds_bucket{discipline=\"fcfs\","
                        "le=\"0.5\"} 2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("le=\"1\"} 5"), std::string::npos);
    EXPECT_NE(text.find("le=\"2\"} 5"), std::string::npos);
    EXPECT_NE(text.find("le=\"4\"} 6"), std::string::npos);
    // +Inf covers the buckets past the last bound and equals _count.
    EXPECT_NE(text.find("le=\"+Inf\"} 11"), std::string::npos);
    EXPECT_NE(text.find("wait_seconds_sum{discipline=\"fcfs\"} 1.5"),
              std::string::npos);
    EXPECT_NE(
        text.find("wait_seconds_count{discipline=\"fcfs\"} 11"),
        std::string::npos);
    EXPECT_TRUE(lintPrometheusText(text).empty())
        << lintPrometheusText(text)[0];
}

TEST(PromWriterTest, HistogramBoundsMustMatchAndIncrease)
{
    Histogram hist;
    hist.add(1);
    std::ostringstream os;
    PromWriter writer(os);
    EXPECT_THROW(
        writer.histogram("h", {}, hist, {0.1, 0.1, 0.2}, 0.0),
        UsageError);
}

TEST(WritePrometheusTest, RegistryRendersAndLintsClean)
{
    MetricRegistry registry;
    registry.add("runner.cache.hits", 7);
    registry.set("runner.grid.jobs", 4.0);
    registry.observe("runner.cell.wall_ns", 1000);
    registry.observe("runner.cell.wall_ns", 3000);

    std::ostringstream os;
    writePrometheus(os, registry, "dirsim.sweep");
    const std::string text = os.str();

    EXPECT_NE(text.find("# TYPE dirsim_sweep_runner_cache_hits "
                        "counter"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("dirsim_sweep_runner_cache_hits 7"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE dirsim_sweep_runner_grid_jobs gauge"),
              std::string::npos);
    // Timers render as a summary plus _min/_max gauges.
    EXPECT_NE(text.find("# TYPE dirsim_sweep_runner_cell_wall_ns "
                        "summary"),
              std::string::npos);
    EXPECT_NE(text.find("dirsim_sweep_runner_cell_wall_ns_count 2"),
              std::string::npos);
    EXPECT_NE(text.find("dirsim_sweep_runner_cell_wall_ns_sum 4000"),
              std::string::npos);
    EXPECT_NE(text.find("dirsim_sweep_runner_cell_wall_ns_min 1000"),
              std::string::npos);
    EXPECT_NE(text.find("dirsim_sweep_runner_cell_wall_ns_max 3000"),
              std::string::npos);

    const std::vector<std::string> problems =
        lintPrometheusText(text);
    EXPECT_TRUE(problems.empty()) << problems[0];
}

TEST(WritePrometheusTest, SanitizedNameCollisionsKeepTheFirst)
{
    // "a.b" and "a_b" both sanitize to "a_b": the second family is
    // skipped (emitting both would be duplicate samples), and the
    // output still lints clean.
    MetricRegistry registry;
    registry.add("a.b", 1);
    registry.add("a_b", 2);
    std::ostringstream os;
    writePrometheus(os, registry);
    const std::string text = os.str();
    EXPECT_NE(text.find("# skipped colliding metric a_b"),
              std::string::npos)
        << text;
    const std::vector<std::string> problems =
        lintPrometheusText(text);
    EXPECT_TRUE(problems.empty()) << problems[0];
}

TEST(LintTest, AcceptsTheFormatCorpus)
{
    EXPECT_TRUE(lintPrometheusText("").empty());
    EXPECT_TRUE(lintPrometheusText(
                    "# HELP up Is the target up\n"
                    "# TYPE up gauge\n"
                    "up 1\n"
                    "# TYPE req_total counter\n"
                    "req_total{method=\"get\",code=\"200\"} 3\n"
                    "req_total{method=\"get\",code=\"404\"} 1 "
                    "1700000000\n")
                    .empty());
}

TEST(LintTest, RejectsGrammarViolations)
{
    EXPECT_FALSE(lintPrometheusText("1badname 3\n").empty());
    EXPECT_FALSE(lintPrometheusText("name{2bad=\"x\"} 3\n").empty());
    EXPECT_FALSE(lintPrometheusText("name{l=\"x\"} oops\n").empty());
    EXPECT_FALSE(lintPrometheusText("name{l=\"x} 3\n").empty());
    EXPECT_FALSE(
        lintPrometheusText("name{l=\"x\"} 3 12.5\n").empty());
    EXPECT_FALSE(lintPrometheusText("# TYPE x flavor\nx 1\n")
                     .empty());
}

TEST(LintTest, RejectsStructuralViolations)
{
    // Duplicate sample (label order must not distinguish).
    EXPECT_FALSE(lintPrometheusText(
                     "# TYPE a gauge\n"
                     "a{x=\"1\",y=\"2\"} 3\n"
                     "a{y=\"2\",x=\"1\"} 4\n")
                     .empty());
    // TYPE after samples.
    EXPECT_FALSE(lintPrometheusText(
                     "# TYPE a gauge\na 1\n# TYPE a counter\n")
                     .empty());
    // A _sum suffix under a gauge family is a stray sample.
    EXPECT_FALSE(lintPrometheusText(
                     "# TYPE a gauge\na_sum 1\n")
                     .empty());
}

TEST(LintTest, RejectsBrokenHistograms)
{
    // Non-cumulative buckets.
    EXPECT_FALSE(lintPrometheusText(
                     "# TYPE h histogram\n"
                     "h_bucket{le=\"1\"} 5\n"
                     "h_bucket{le=\"2\"} 3\n"
                     "h_bucket{le=\"+Inf\"} 5\n"
                     "h_sum 1\n"
                     "h_count 5\n")
                     .empty());
    // Missing +Inf bucket.
    EXPECT_FALSE(lintPrometheusText(
                     "# TYPE h histogram\n"
                     "h_bucket{le=\"1\"} 5\n"
                     "h_sum 1\n"
                     "h_count 5\n")
                     .empty());
    // +Inf disagrees with _count.
    EXPECT_FALSE(lintPrometheusText(
                     "# TYPE h histogram\n"
                     "h_bucket{le=\"1\"} 2\n"
                     "h_bucket{le=\"+Inf\"} 5\n"
                     "h_sum 1\n"
                     "h_count 6\n")
                     .empty());
    // A correct histogram passes.
    EXPECT_TRUE(lintPrometheusText(
                    "# TYPE h histogram\n"
                    "h_bucket{le=\"1\"} 2\n"
                    "h_bucket{le=\"+Inf\"} 5\n"
                    "h_sum 1.25\n"
                    "h_count 5\n")
                    .empty());
}

} // namespace
} // namespace dirsim
