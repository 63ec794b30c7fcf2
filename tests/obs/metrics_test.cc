/** @file Unit tests for obs/metrics.hh. */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace dirsim
{
namespace
{

TEST(MetricRegistryTest, CountersAccumulate)
{
    MetricRegistry metrics;
    EXPECT_EQ(metrics.counter("sim.refs"), 0u);
    EXPECT_FALSE(metrics.has("sim.refs"));
    metrics.add("sim.refs");
    metrics.add("sim.refs", 4);
    EXPECT_TRUE(metrics.has("sim.refs"));
    EXPECT_EQ(metrics.counter("sim.refs"), 5u);
}

TEST(MetricRegistryTest, GaugesTakeLastValue)
{
    MetricRegistry metrics;
    EXPECT_DOUBLE_EQ(metrics.gauge("runner.wall"), 0.0);
    metrics.set("runner.wall", 1.5);
    metrics.set("runner.wall", 2.5);
    EXPECT_DOUBLE_EQ(metrics.gauge("runner.wall"), 2.5);
}

TEST(MetricRegistryTest, TimersSummarize)
{
    MetricRegistry metrics;
    metrics.observe("cell.wall_ms", 10);
    metrics.observe("cell.wall_ms", 30);
    metrics.observe("cell.wall_ms", 20);
    const TimerStats stats = metrics.timer("cell.wall_ms");
    EXPECT_EQ(stats.count, 3u);
    EXPECT_EQ(stats.sum, 60u);
    EXPECT_EQ(stats.min, 10u);
    EXPECT_EQ(stats.max, 30u);
    EXPECT_DOUBLE_EQ(stats.mean(), 20.0);
}

TEST(MetricRegistryTest, KindCollisionThrows)
{
    MetricRegistry metrics;
    metrics.add("name", 1);
    EXPECT_THROW(metrics.set("name", 1.0), UsageError);
    EXPECT_THROW(metrics.observe("name", 1), UsageError);
    EXPECT_THROW(metrics.gauge("name"), UsageError);
    EXPECT_THROW(metrics.timer("name"), UsageError);
    EXPECT_EQ(metrics.counter("name"), 1u);
}

TEST(MetricRegistryTest, NameValidation)
{
    EXPECT_NO_THROW(
        MetricRegistry::checkName("sim.pops.Dir0B.events.rd_hit"));
    EXPECT_NO_THROW(MetricRegistry::checkName("a-b_C9"));
    for (const char *bad :
         {"", ".", "a.", ".a", "a..b", "a b", "a/b", "a\n"}) {
        EXPECT_THROW(MetricRegistry::checkName(bad), UsageError)
            << '"' << bad << '"';
    }
    MetricRegistry metrics;
    EXPECT_THROW(metrics.add("bad name"), UsageError);
}

TEST(MetricRegistryTest, MergeCombinesByKind)
{
    MetricRegistry a;
    a.add("c", 2);
    a.set("g", 1.0);
    a.observe("t", 5);
    MetricRegistry b;
    b.add("c", 3);
    b.set("g", 9.0);
    b.observe("t", 15);
    b.add("only_b", 7);
    a.merge(b);
    EXPECT_EQ(a.counter("c"), 5u);
    EXPECT_DOUBLE_EQ(a.gauge("g"), 9.0); // gauges take other's value
    EXPECT_EQ(a.timer("t").count, 2u);
    EXPECT_EQ(a.timer("t").min, 5u);
    EXPECT_EQ(a.timer("t").max, 15u);
    EXPECT_EQ(a.counter("only_b"), 7u);
}

TEST(MetricRegistryTest, MergeIntoSelfIsNoOp)
{
    MetricRegistry metrics;
    metrics.add("c", 2);
    metrics.observe("t", 5);
    metrics.merge(metrics);
    EXPECT_EQ(metrics.counter("c"), 2u);
    EXPECT_EQ(metrics.timer("t").count, 1u);
}

TEST(MetricRegistryTest, MergeKindMismatchThrows)
{
    MetricRegistry a;
    a.add("x", 1);
    MetricRegistry b;
    b.set("x", 1.0);
    EXPECT_THROW(a.merge(b), UsageError);
}

TEST(MetricRegistryTest, IterationIsNameOrdered)
{
    MetricRegistry metrics;
    metrics.add("z.last");
    metrics.set("a.first", 1.0);
    metrics.observe("m.mid", 2);
    std::vector<std::string> names;
    for (const auto &[name, metric] : metrics)
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"a.first", "m.mid",
                                               "z.last"}));
}

TEST(MetricRegistryTest, JsonRoundTrip)
{
    MetricRegistry metrics;
    metrics.add("sim.refs", 18446744073709551615ULL); // full u64
    metrics.set("runner.wall", 1.25);
    metrics.observe("cell.ms", 7);
    metrics.observe("cell.ms", 9);

    std::ostringstream os;
    JsonWriter writer(os);
    metrics.writeJson(writer);
    const MetricRegistry loaded =
        MetricRegistry::fromJson(JsonValue::parse(os.str()));

    EXPECT_EQ(loaded.size(), metrics.size());
    EXPECT_EQ(loaded.counter("sim.refs"), 18446744073709551615ULL);
    EXPECT_DOUBLE_EQ(loaded.gauge("runner.wall"), 1.25);
    EXPECT_EQ(loaded.timer("cell.ms"),
              (TimerStats{2, 16, 7, 9}));
}

TEST(MetricRegistryTest, EscapeSegmentNeutralizesSeparators)
{
    // A '.' inside a segment would split the dotted hierarchy and
    // collide with genuinely nested names; escaping folds it (and
    // every other illegal character) to '_'.
    EXPECT_EQ(MetricRegistry::escapeSegment("app.bin"), "app_bin");
    EXPECT_EQ(MetricRegistry::escapeSegment("Dir1NB"), "Dir1NB");
    EXPECT_EQ(MetricRegistry::escapeSegment("ok-name_1"),
              "ok-name_1");
    EXPECT_EQ(MetricRegistry::escapeSegment("a b/c"), "a_b_c");
    EXPECT_EQ(MetricRegistry::escapeSegment(""), "_");

    // The escaped form always passes name validation as a segment.
    MetricRegistry metrics;
    metrics.add("sim." + MetricRegistry::escapeSegment("x.y/z")
                + ".refs");
    EXPECT_TRUE(metrics.has("sim.x_y_z.refs"));
}

TEST(MetricRegistryTest, EscapedSegmentsCannotCollideAcrossDots)
{
    // Regression: trace "a.b" + scheme "c" must not produce the same
    // name as trace "a" + scheme "b.c" (both would be "sim.a.b.c").
    const auto name = [](const std::string &trace,
                         const std::string &scheme) {
        return "sim." + MetricRegistry::escapeSegment(trace) + "."
            + MetricRegistry::escapeSegment(scheme);
    };
    EXPECT_NE(name("a.b", "c"), name("a", "b.c"));
}

} // namespace
} // namespace dirsim
