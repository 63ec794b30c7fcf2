/**
 * @file
 * File-vs-in-memory simulation equality: a file job
 * (runJob({TraceRef::file(path), ...})) and
 * ExperimentRunner::runFiles(), which decode each file in one
 * streaming read, must produce bit-identical SimResults to the
 * in-memory path for every paper scheme on every standard-suite
 * trace, over both container formats.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "sim/decoded.hh"
#include "sim/runner.hh"
#include "sim/suite.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

namespace dirsim
{
namespace
{

std::vector<Trace>
smallSuite()
{
    SuiteParams params;
    params.refsPerTrace = 30'000;
    params.seed = 7;
    return standardSuite(params);
}

/** Every field a simulation produces, compared exactly. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.traceName, b.traceName);
    EXPECT_EQ(a.numCaches, b.numCaches);
    EXPECT_EQ(a.totalRefs, b.totalRefs);
    EXPECT_TRUE(a.events == b.events) << a.scheme << "/" << a.traceName;
    EXPECT_TRUE(a.ops == b.ops) << a.scheme << "/" << a.traceName;
    EXPECT_TRUE(a.cleanWriteHolders == b.cleanWriteHolders)
        << a.scheme << "/" << a.traceName;
}

/** Simulate one scheme on a trace file: a file job. */
SimResult
simulateFile(const std::string &path, const std::string &scheme,
             const SimConfig &config = {})
{
    return runJob({TraceRef::file(path), parseScheme(scheme), config})
        .result;
}

/** Write every suite trace to a binary v2 file; return the paths. */
std::vector<std::string>
writeSuiteFiles(const std::vector<Trace> &traces)
{
    std::vector<std::string> paths;
    for (const auto &trace : traces) {
        // Each discovered test is its own process; suffix the pid so
        // parallel ctest invocations don't race on shared scratch
        // files.
        const std::string path = testing::TempDir() + "/streaming_"
            + std::to_string(::getpid()) + "_" + trace.name()
            + ".trace";
        writeBinaryTraceFile(trace, path);
        paths.push_back(path);
    }
    return paths;
}

TEST(StreamingSimTest, FileStreamingIsBitIdenticalToInMemory)
{
    const auto traces = smallSuite();
    const auto paths = writeSuiteFiles(traces);

    for (const auto &scheme : paperSchemes()) {
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const SimResult in_memory =
                simulateTrace(traces[t], parseScheme(scheme));
            const SimResult streamed = simulateFile(paths[t], scheme);
            expectIdentical(streamed, in_memory);
        }
    }
}

TEST(StreamingSimTest, TextContainerStreamsIdenticallyToo)
{
    const auto traces = smallSuite();
    const std::string path = testing::TempDir() + "/streaming_text_"
        + std::to_string(::getpid()) + ".txt";
    writeTextTraceFile(traces[0], path);
    expectIdentical(simulateFile(path, "Dir1NB"),
                    simulateTrace(traces[0], parseScheme("Dir1NB")));
}

TEST(StreamingSimTest, StreamingSourceOverloadMatchesProtocolOverload)
{
    const auto traces = smallSuite();
    const Trace &trace = traces[1];
    const SimResult in_memory = simulateTrace(trace, parseScheme("Dir0B"));

    const std::string path = testing::TempDir() + "/streaming_source_"
        + std::to_string(::getpid()) + ".trace";
    writeBinaryTraceFile(trace, path);
    const auto source = openTraceSource(path);
    const DecodedTrace decoded = decodeTrace(*source, defaultBlockBytes,
                                             SharingModel::ByProcess);
    const auto protocol = makeProtocol(
        parseScheme("Dir0B"), decoded.cachesNeeded, decoded.blockSpace());
    expectIdentical(simulateTrace(decoded, *protocol), in_memory);
}

TEST(StreamingSimTest, WarmupAppliesIdenticallyWhenStreaming)
{
    const auto traces = smallSuite();
    const auto paths = writeSuiteFiles(traces);
    SimConfig config;
    config.warmupRefs = 5'000;
    expectIdentical(simulateFile(paths[2], "Dir4NB", config),
                    simulateTrace(traces[2], parseScheme("Dir4NB"), config));
}

TEST(StreamingSimTest, FileJobChargesItsDecodeToRead)
{
    // The plan decodes a file before its one cell runs; runJob charges
    // that decode to the cell's Read phase.
    const auto traces = smallSuite();
    const auto paths = writeSuiteFiles(traces);
    const SimResult streamed = simulateFile(paths[0], "Dir0B");
    EXPECT_GT(streamed.phases.get(Phase::Read), 0u);
    expectIdentical(streamed,
                    simulateTrace(traces[0], parseScheme("Dir0B")));
}

TEST(StreamingSimTest, ScanTraceFileReportsTheTrace)
{
    const auto traces = smallSuite();
    const auto paths = writeSuiteFiles(traces);
    for (std::size_t t = 0; t < traces.size(); ++t) {
        const DecodedTrace decoded = decodeTraceFile(
            paths[t], defaultBlockBytes, SharingModel::ByProcess);
        EXPECT_EQ(decoded.name, traces[t].name());
        EXPECT_EQ(decoded.numRecords(), traces[t].size());
        EXPECT_EQ(decoded.cachesNeeded,
                  cachesNeeded(traces[t], SharingModel::ByProcess));
    }
}

TEST(StreamingSimTest, RunFilesMatchesRunAcrossJobCounts)
{
    const auto traces = smallSuite();
    const auto paths = writeSuiteFiles(traces);
    const std::vector<SchemeSpec> schemes = parseSchemes(paperSchemes());

    RunnerConfig sequential;
    sequential.jobs = 1;
    const GridResult reference =
        ExperimentRunner(sequential).run(schemes, traces);

    for (const unsigned jobs : {1u, 4u}) {
        RunnerConfig config;
        config.jobs = jobs;
        const GridResult grid =
            ExperimentRunner(config).runFiles(schemes, paths);
        ASSERT_EQ(grid.schemes.size(), reference.schemes.size());
        for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
            EXPECT_EQ(grid.schemes[s].scheme,
                      reference.schemes[s].scheme);
            ASSERT_EQ(grid.schemes[s].perTrace.size(),
                      reference.schemes[s].perTrace.size());
            for (std::size_t t = 0;
                 t < grid.schemes[s].perTrace.size(); ++t)
                expectIdentical(grid.schemes[s].perTrace[t],
                                reference.schemes[s].perTrace[t]);
        }
        ASSERT_EQ(grid.cells.size(), schemes.size() * paths.size());
        for (std::size_t c = 0; c < grid.cells.size(); ++c)
            EXPECT_EQ(grid.cells[c].refs,
                      traces[c % traces.size()].size());
    }
}

TEST(StreamingSimTest, MissingOrCorruptFilesFailCleanly)
{
    EXPECT_THROW(simulateFile("/nonexistent/x.trace", "Dir0B"),
                 UsageError);
    const std::string path = testing::TempDir() + "/streaming_bad_"
        + std::to_string(::getpid()) + ".txt";
    writeTextTraceFile(smallSuite()[0], path);
    // Corrupt the file: append a bogus record line.
    {
        std::ofstream os(path, std::ios::app);
        os << "0 1 read zzz -\n";
    }
    EXPECT_THROW(simulateFile(path, "Dir0B"), UsageError);
    EXPECT_THROW(ExperimentRunner().runFiles({parseScheme("Dir0B")},
                                             {path}),
                 UsageError);
}

} // namespace
} // namespace dirsim
