/**
 * @file
 * Tests for the leveled structured logger (common/log.hh): level
 * parsing, threshold gating, the file sink, and the JSONL line
 * shape every event emits.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/logging.hh"

namespace dirsim
{
namespace
{

/** Saves and restores the global sink, so tests never leak a level
 *  or file into later tests. */
class StructuredLogTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        savedLevel = StructuredLog::global().level();
        savedFile = StructuredLog::global().file();
    }

    void
    TearDown() override
    {
        StructuredLog::global().setLevel(savedLevel);
        StructuredLog::global().setFile(savedFile);
    }

    /** Point the sink at a fresh file and return its path. */
    std::string
    freshSink(const char *name)
    {
        const std::string path =
            testing::TempDir() + "/dirsim_log_" + name + ".jsonl";
        std::filesystem::remove(path);
        StructuredLog::global().setFile(path);
        return path;
    }

    static std::vector<std::string>
    readLines(const std::string &path)
    {
        std::ifstream in(path);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        return lines;
    }

    LogLevel savedLevel = LogLevel::Info;
    std::string savedFile;
};

TEST_F(StructuredLogTest, LevelNamesRoundTrip)
{
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("off"), LogLevel::Off);
    for (const LogLevel level :
         {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
          LogLevel::Error, LogLevel::Off})
        EXPECT_EQ(parseLogLevel(toString(level)), level);
    EXPECT_THROW(parseLogLevel("verbose"), UsageError);
    EXPECT_THROW(parseLogLevel(""), UsageError);
}

TEST_F(StructuredLogTest, ThresholdGatesEmission)
{
    const std::string path = freshSink("threshold");
    StructuredLog::global().setLevel(LogLevel::Warn);
    EXPECT_FALSE(StructuredLog::global().enabled(LogLevel::Debug));
    EXPECT_FALSE(StructuredLog::global().enabled(LogLevel::Info));
    EXPECT_TRUE(StructuredLog::global().enabled(LogLevel::Warn));
    EXPECT_TRUE(StructuredLog::global().enabled(LogLevel::Error));

    logEvent(LogLevel::Info, "dropped").field("k", true);
    logEvent(LogLevel::Warn, "kept").field("k", true);
    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"event\":\"kept\""),
              std::string::npos);
}

TEST_F(StructuredLogTest, OffDisablesEverything)
{
    const std::string path = freshSink("off");
    StructuredLog::global().setLevel(LogLevel::Off);
    EXPECT_FALSE(StructuredLog::global().enabled(LogLevel::Error));
    logEvent(LogLevel::Error, "nope");
    EXPECT_TRUE(readLines(path).empty());
}

TEST_F(StructuredLogTest, LinesAreParseableJsonWithStandardFields)
{
    const std::string path = freshSink("shape");
    StructuredLog::global().setLevel(LogLevel::Debug);
    logEvent(LogLevel::Info, "serve.run.finished")
        .field("run", std::uint64_t{3})
        .field("state", "done")
        .field("signed", std::int64_t{-7})
        .field("wall_seconds", 1.25)
        .field("cache_hit", true)
        .field("quoted", "a \"b\"\nc");

    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    const JsonValue json = JsonValue::parse(lines[0]);
    ASSERT_TRUE(json.isObject());
    EXPECT_EQ(json.at("level").asString(), "info");
    EXPECT_EQ(json.at("event").asString(), "serve.run.finished");
    EXPECT_GT(json.at("mono_ns").asU64(), 0u);
    // ts is wall-clock UTC: "YYYY-MM-DDTHH:MM:SSZ".
    const std::string ts = json.at("ts").asString();
    ASSERT_EQ(ts.size(), 20u);
    EXPECT_EQ(ts[10], 'T');
    EXPECT_EQ(ts.back(), 'Z');
    EXPECT_EQ(json.at("run").asU64(), 3u);
    EXPECT_EQ(json.at("state").asString(), "done");
    EXPECT_DOUBLE_EQ(json.at("signed").asDouble(), -7.0);
    EXPECT_DOUBLE_EQ(json.at("wall_seconds").asDouble(), 1.25);
    EXPECT_TRUE(json.at("cache_hit").asBool());
    EXPECT_EQ(json.at("quoted").asString(), "a \"b\"\nc");
}

TEST_F(StructuredLogTest, FileSinkAppendsAcrossReopen)
{
    const std::string path = freshSink("append");
    StructuredLog::global().setLevel(LogLevel::Info);
    logEvent(LogLevel::Info, "first");
    // Re-pointing at the same path must append, not truncate — a
    // restarted daemon keeps its predecessor's lines.
    StructuredLog::global().setFile(path);
    logEvent(LogLevel::Info, "second");
    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("first"), std::string::npos);
    EXPECT_NE(lines[1].find("second"), std::string::npos);
}

} // namespace
} // namespace dirsim
