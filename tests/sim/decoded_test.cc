/**
 * @file
 * The decode-once pipeline: DecodedTrace's shape and labels; every
 * entry point that decodes first (in-memory traces, files, grids at
 * any job count, traced runs, warm-up) agreeing cell for cell; finite
 * caches choosing sets by the original block numbers; and the
 * rejections of mismatched streams and protocols.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"
#include "sim/decoded.hh"
#include "sim/runner.hh"
#include "sim/suite.hh"
#include "test_util.hh"
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
    params.seed = 11;
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

void
expectIdenticalGrids(const GridResult &a, const GridResult &b)
{
    ASSERT_EQ(a.schemes.size(), b.schemes.size());
    for (std::size_t s = 0; s < a.schemes.size(); ++s) {
        EXPECT_EQ(a.schemes[s].scheme, b.schemes[s].scheme);
        ASSERT_EQ(a.schemes[s].perTrace.size(),
                  b.schemes[s].perTrace.size());
        for (std::size_t t = 0; t < a.schemes[s].perTrace.size(); ++t)
            expectIdentical(a.schemes[s].perTrace[t],
                            b.schemes[s].perTrace[t]);
    }
}

TEST(DecodedTraceTest, DecodeReportsExactShape)
{
    const auto traces = smallSuite();
    for (const Trace &trace : traces) {
        const DecodedTrace decoded =
            decodeTrace(trace, defaultBlockBytes,
                        SharingModel::ByProcess);
        EXPECT_EQ(decoded.name, trace.name());
        EXPECT_EQ(decoded.numRecords(), trace.size());
        EXPECT_EQ(decoded.cachesNeeded,
                  cachesNeeded(trace, SharingModel::ByProcess));
        EXPECT_LE(decoded.cachesUsed, decoded.cachesNeeded);
        EXPECT_GT(decoded.blockCount(), 0u);
        EXPECT_EQ(decoded.ops.size(), decoded.blocks.size());
        EXPECT_EQ(decoded.ops.size(), decoded.caches.size());
        EXPECT_GT(decoded.memoryBytes(), 0u);

        // Replay the stream by hand: kinds and flags must mirror the
        // raw records, each dense index must label the real block,
        // and the first-ref flag must fire exactly once per block.
        std::vector<bool> seen(decoded.blockCount(), false);
        std::uint64_t data_refs = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const TraceRecord &record = trace[i];
            const std::uint8_t op = decoded.ops[i];
            if (record.isInstr()) {
                EXPECT_EQ(op, decodedOpInstr);
                continue;
            }
            EXPECT_EQ(op & decodedOpKindMask,
                      record.isRead() ? decodedOpRead : decodedOpWrite);
            const std::uint32_t index = decoded.blocks[i];
            ASSERT_LT(index, decoded.blockCount());
            EXPECT_EQ(decoded.denseToBlock[index],
                      blockNumber(record.addr, defaultBlockBytes));
            EXPECT_EQ((op & decodedOpFirstRef) != 0, !seen[index]);
            seen[index] = true;
            EXPECT_LT(decoded.caches[i], decoded.cachesUsed);
            ++data_refs;
        }
        EXPECT_EQ(decoded.dataRefs, data_refs);
    }
}

TEST(DecodedTraceTest, BitIdenticalAcrossPaperSchemes)
{
    const auto traces = smallSuite();
    for (const Trace &trace : traces) {
        const DecodedTrace decoded =
            decodeTrace(trace, defaultBlockBytes,
                        SharingModel::ByProcess);
        for (const SchemeSpec &scheme : parseSchemes(paperSchemes())) {
            expectIdentical(simulateTrace(decoded, scheme),
                            simulateTrace(trace, scheme));
        }
    }
}

TEST(DecodedTraceTest, FiniteCachesIndexSetsByOriginalBlock)
{
    // Blocks 0 and 2 share a set of a two-set direct-mapped cache, but
    // their dense indices (0 and 1, in first-appearance order) do not:
    // replacement must follow the original block numbers.
    const Trace trace = test::makeTrace({
        test::read(1, 0x00), // block 0, set 0
        test::read(1, 0x20), // block 2, set 0: evicts block 0
        test::read(1, 0x00), // a replacement miss, not a hit
    });
    SimConfig config;
    FiniteCacheConfig geometry;
    geometry.capacityBytes = 2 * defaultBlockBytes;
    geometry.ways = 1;
    geometry.blockBytes = config.blockBytes;
    config.finiteCache = geometry;

    const DecodedTrace decoded =
        decodeTrace(trace, config.blockBytes, config.sharing);
    for (const std::string scheme : {"Dir0B", "Dir2NB", "YenFu"}) {
        const SimResult result =
            simulateTrace(decoded, parseScheme(scheme), config);
        EXPECT_EQ(result.events.count(EventType::RdMiss), 1u) << scheme;
        EXPECT_EQ(result.events.count(EventType::RdHit), 0u) << scheme;
    }
}

TEST(DecodedTraceTest, TracedRunsStayIdenticalAndLabelRealBlocks)
{
    const auto traces = smallSuite();
    const Trace &trace = traces[1];
    const DecodedTrace decoded = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    const SimResult untraced = simulateTrace(trace, parseScheme("Dir1NB"));

    TracerConfig tracer_config;
    tracer_config.samplePeriod = 64;
    EventTracer tracer(tracer_config);
    {
        SimConfig config;
        auto session = tracer.session("Dir1NB", trace.name());
        config.traceSink = session.get();
        expectIdentical(simulateTrace(decoded, parseScheme("Dir1NB"), config),
                        untraced);
    }

    // Dense runs key blocks by densified index internally; the sink
    // must still see original block numbers.
    bool any_event = false;
    for (const auto &timeline : tracer.timelines()) {
        for (const auto &event : timeline.events) {
            any_event = true;
            const auto &labels = decoded.denseToBlock;
            EXPECT_NE(std::find(labels.begin(), labels.end(),
                                event.block),
                      labels.end())
                << "event block " << event.block
                << " is not an original block number";
        }
    }
    EXPECT_TRUE(any_event);
}

TEST(DecodedTraceTest, WarmupAndInvariantChecksMatch)
{
    const auto traces = smallSuite();
    SimConfig config;
    config.warmupRefs = 7'000;
    config.invariantCheckPeriod = 2'048;
    const DecodedTrace decoded = decodeTrace(
        traces[2], config.blockBytes, config.sharing);
    for (const std::string scheme : {"Dir0B", "DirNNB", "DirCV"}) {
        expectIdentical(
            simulateTrace(decoded, parseScheme(scheme), config),
            simulateTrace(traces[2], parseScheme(scheme), config));
    }
}

TEST(DecodedTraceTest, RunnerGridsMatchLegacyAcrossJobCounts)
{
    // Grids at any job count match the one-cell entry point.
    const auto traces = smallSuite();
    const std::vector<SchemeSpec> schemes = parseSchemes(paperSchemes());

    for (const unsigned jobs : {1u, 4u}) {
        RunnerConfig config;
        config.jobs = jobs;
        const GridResult grid =
            ExperimentRunner(config).run(schemes, traces);
        ASSERT_EQ(grid.schemes.size(), schemes.size());
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            ASSERT_EQ(grid.schemes[s].perTrace.size(), traces.size());
            for (std::size_t t = 0; t < traces.size(); ++t)
                expectIdentical(grid.schemes[s].perTrace[t],
                                simulateTrace(traces[t], schemes[s]));
        }
        for (std::size_t c = 0; c < grid.cells.size(); ++c)
            EXPECT_EQ(grid.cells[c].refs,
                      traces[c % traces.size()].size());
    }
}

TEST(DecodedTraceTest, RunFilesReadsOnceAndMatchesLegacy)
{
    const auto traces = smallSuite();
    std::vector<std::string> paths;
    for (const auto &trace : traces) {
        const std::string path = testing::TempDir() + "/decoded_"
            + std::to_string(::getpid()) + "_" + trace.name()
            + ".trace";
        writeBinaryTraceFile(trace, path);
        paths.push_back(path);
    }
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
        expectIdenticalGrids(grid, reference);
    }

    // A single file job matches the file's decoded stream.
    const DecodedTrace decoded = decodeTraceFile(
        paths[0], defaultBlockBytes, SharingModel::ByProcess);
    const SchemeSpec dir4nb = parseScheme("Dir4NB");
    expectIdentical(runJob({TraceRef::file(paths[0]), dir4nb, {}}).result,
                    simulateTrace(decoded, dir4nb));
}

TEST(DecodedTraceTest, MismatchedGeometryIsRejected)
{
    const auto traces = smallSuite();
    const DecodedTrace decoded = decodeTrace(
        traces[0], defaultBlockBytes, SharingModel::ByProcess);

    SimConfig wrong_block;
    wrong_block.blockBytes = defaultBlockBytes * 2;
    EXPECT_THROW(simulateTrace(decoded, parseScheme("Dir0B"), wrong_block),
                 UsageError);

    SimConfig wrong_sharing;
    wrong_sharing.sharing = SharingModel::ByProcessor;
    EXPECT_THROW(simulateTrace(decoded, parseScheme("Dir0B"), wrong_sharing),
                 UsageError);

    // A protocol domain smaller than the stream's cache ids fails.
    const auto small =
        makeProtocol(parseScheme("Dir0B"), 1, decoded.blockSpace());
    if (decoded.cachesUsed > 1) {
        EXPECT_THROW(simulateTrace(decoded, *small), UsageError);
    }

    // So does a protocol built over another block space.
    const auto unlabelled =
        makeProtocol(parseScheme("Dir0B"), decoded.cachesNeeded,
                     BlockSpace{decoded.blockCount()});
    EXPECT_THROW(simulateTrace(decoded, *unlabelled), UsageError);
}

TEST(DecodedTraceTest, EmptyTraceFailsLikeTheLegacyPath)
{
    Trace empty("empty", 4);
    const DecodedTrace decoded = decodeTrace(
        empty, defaultBlockBytes, SharingModel::ByProcess);
    EXPECT_EQ(decoded.numRecords(), 0u);
    EXPECT_THROW(simulateTrace(decoded, parseScheme("Dir0B")), UsageError);
}

} // namespace
} // namespace dirsim
