/** @file Unit tests for obs/sink.hh. */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/sink.hh"
#include "sim/simulator.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

CellRecord
sampleRecord()
{
    static const CellRecord record = [] {
        const Trace trace = generateTrace("pero", 20'000, 5);
        const SimResult result = simulateTrace(trace, parseScheme("WTI"));
        CellTiming timing;
        timing.wallSeconds = 0.5;
        return CellRecord::fromCell(result, timing);
    }();
    return record;
}

RunManifest
sampleManifest()
{
    RunManifest manifest =
        RunManifest::capture({parseScheme("WTI")}, SimConfig{});
    manifest.stampStart();
    manifest.stampFinish();
    return manifest;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

TEST(JsonlSinkTest, WritesOneDocumentPerLine)
{
    std::ostringstream os;
    JsonlSink sink(os);
    sink.writeManifest(sampleManifest());
    sink.writeCell(sampleRecord());
    sink.writeCell(sampleRecord());
    MetricRegistry metrics;
    metrics.add("sim.refs", 1);
    sink.writeMetrics(metrics);
    sink.finish();

    const auto all = lines(os.str());
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(JsonValue::parse(all[0]).at("kind").asString(),
              "manifest");
    EXPECT_EQ(JsonValue::parse(all[1]).at("kind").asString(), "cell");
    EXPECT_EQ(JsonValue::parse(all[2]).at("kind").asString(), "cell");
    const JsonValue metrics_line = JsonValue::parse(all[3]);
    EXPECT_EQ(metrics_line.at("kind").asString(), "metrics");
    EXPECT_EQ(metrics_line.at("metrics")
                  .at("sim.refs")
                  .at("value")
                  .asU64(),
              1u);
}

TEST(JsonlSinkTest, FinishTwiceThrows)
{
    std::ostringstream os;
    JsonlSink sink(os);
    sink.finish();
    EXPECT_THROW(sink.finish(), UsageError);
    EXPECT_THROW(sink.writeCell(sampleRecord()), UsageError);
}

TEST(JsonlSinkTest, UnwritablePathThrows)
{
    EXPECT_THROW(JsonlSink("/nonexistent/dir/out.jsonl"),
                 UsageError);
}

TEST(JsonlSinkTest, FileSinkWrites)
{
    const std::string path = testing::TempDir() + "/sink_test.jsonl";
    {
        JsonlSink sink(path);
        sink.writeManifest(sampleManifest());
        sink.finish();
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(JsonValue::parse(line).at("kind").asString(),
              "manifest");
    std::remove(path.c_str());
}

} // namespace
} // namespace dirsim
