/**
 * @file
 * The decode-once pipeline: DecodedTrace's shape and labels; every
 * entry point that decodes first (in-memory traces, files, grids at
 * any job count, traced runs, warm-up) agreeing cell for cell; finite
 * caches choosing sets by the original block numbers; the coherence
 * references infinite-cache cells replay, which give the full walk's
 * results at every warm-up; the content checksum over the
 * record-aligned layout and the pinned content key; and the
 * rejections of mismatched streams, protocols and oversized domains.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"
#include "protocols/registry.hh"
#include "sim/decoded.hh"
#include "sim/runner.hh"
#include "sim/scaling.hh"
#include "sim/suite.hh"
#include "test_util.hh"
#include "trace/format.hh"
#include "trace/writer.hh"
#include "tracegen/generator.hh"

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
        EXPECT_EQ(decoded.dataBits.size(), (trace.size() + 63) / 64);
        EXPECT_GT(decoded.memoryBytes(), 0u);

        // Replay the stream by hand: the bitmap must mark exactly the
        // data records, which the columns hold in record order; kinds
        // and flags must mirror the raw records, each dense index must
        // label the real block, the first-ref flag must fire exactly
        // once per block, and a data record is a coherence reference
        // unless it reads a block its own cache referenced last.
        std::vector<bool> seen(decoded.blockCount(), false);
        std::vector<CacheId> last(decoded.blockCount(), invalidCacheId);
        std::vector<std::uint32_t> coherence;
        std::uint64_t data_refs = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const TraceRecord &record = trace[i];
            EXPECT_EQ(decoded.dataBefore(i), data_refs);
            EXPECT_EQ(decoded.isData(i), !record.isInstr());
            if (record.isInstr())
                continue;
            const std::uint64_t d = data_refs++;
            const std::uint8_t op = decoded.ops[d];
            EXPECT_EQ(op & decodedOpKindMask,
                      record.isRead() ? decodedOpRead : decodedOpWrite);
            const std::uint32_t index = decoded.blocks[d];
            ASSERT_LT(index, decoded.blockCount());
            EXPECT_EQ(decoded.denseToBlock[index],
                      blockNumber(record.addr, defaultBlockBytes));
            EXPECT_EQ((op & decodedOpFirstRef) != 0, !seen[index]);
            seen[index] = true;
            EXPECT_LT(decoded.caches[d], decoded.cachesUsed);
            if (record.isWrite() || last[index] != decoded.caches[d])
                coherence.push_back(static_cast<std::uint32_t>(d));
            last[index] = decoded.caches[d];
        }
        EXPECT_EQ(decoded.dataRefs(), data_refs);
        EXPECT_EQ(decoded.dataBefore(trace.size() + 64), data_refs);
        EXPECT_EQ(decoded.coherenceRefs, coherence);
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

/**
 * One record per classification case, at 16-byte blocks. Pids 1 and
 * 5 share cpu 1, so record 11 is a coherence reference under
 * ByProcess and a private re-read under ByProcessor.
 */
Trace
classifiedTrace()
{
    return test::makeTrace({
        test::instr(1, 0x1000), //  0 fetch
        test::read(1, 0x00),    //  1 A: first reference
        test::read(1, 0x04),    //  2 A: private re-read
        test::read(2, 0x08),    //  3 A: another cache's read
        test::read(1, 0x0c),    //  4 A: re-read after another's read
        test::write(2, 0x10),   //  5 B: first reference, a write
        test::read(2, 0x14),    //  6 B: re-read after its own write
        test::instr(2, 0x1004), //  7 fetch
        test::write(2, 0x18),   //  8 B: write by its last referencer
        test::read(1, 0x10),    //  9 B: another cache's read
        test::read(1, 0x1c),    // 10 B: private re-read
        test::read(5, 0x00),    // 11 A: pid 5 on cpu 1
        test::read(5, 0x04),    // 12 A: private re-read
    });
}

TEST(DecodedTraceTest, CoherenceReferencesArePinned)
{
    const Trace trace = classifiedTrace();
    const DecodedTrace by_process = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcess);
    // Data indices: records 0 and 7 are fetches, so records 1-6 are
    // data records 0-5 and records 8-12 are data records 6-10.
    EXPECT_EQ(by_process.coherenceRefs,
              (std::vector<std::uint32_t>{0, 2, 3, 4, 6, 7, 9}));
    // One bitmap word, 11 data records x 7 B (op, u32 block, u16
    // cache), 2 blocks x 8 B, 7 coherence references x 4 B.
    EXPECT_EQ(by_process.memoryBytes(), 8u + 11 * 7 + 2 * 8 + 7 * 4);

    const DecodedTrace by_processor = decodeTrace(
        trace, defaultBlockBytes, SharingModel::ByProcessor);
    EXPECT_EQ(by_processor.coherenceRefs,
              (std::vector<std::uint32_t>{0, 2, 3, 4, 6, 7}));
}

TEST(DecodedTraceTest, ElidedWalkMatchesTheFullWalkAtEveryWarmup)
{
    // An invariant-check period forces the full walk and changes no
    // result. Every warm-up boundary of the hand-written stream is
    // covered: inside a skipped run (2, 6, 7), on a coherence
    // reference (1, 3, ...), and past the last one (12; 10 to 12
    // under ByProcessor).
    const Trace trace = classifiedTrace();
    std::vector<std::string> schemes = allSchemes();
    schemes.push_back("DirCVr2");
    for (const SharingModel sharing :
         {SharingModel::ByProcess, SharingModel::ByProcessor}) {
        const DecodedTrace decoded =
            decodeTrace(trace, defaultBlockBytes, sharing);
        SimConfig elided;
        elided.sharing = sharing;
        SimConfig full = elided;
        full.invariantCheckPeriod = 1;
        for (std::uint64_t w = 0; w <= decoded.numRecords(); ++w) {
            elided.warmupRefs = full.warmupRefs = w;
            for (const std::string &name : schemes) {
                SCOPED_TRACE(name + " warm-up " + std::to_string(w));
                const SchemeSpec scheme = parseScheme(name);
                if (w == decoded.numRecords()) {
                    EXPECT_THROW(simulateTrace(decoded, scheme, elided),
                                 UsageError);
                    continue;
                }
                expectIdentical(simulateTrace(decoded, scheme, elided),
                                simulateTrace(decoded, scheme, full));
            }
        }
    }

    // Generated streams at a spread of boundaries: a paper trace, and
    // a 130-cache scaling trace whose sharer sets run in hybrid mode
    // and spill.
    ScalingParams params;
    params.refsPerTrace = 3'000;
    const Trace thor = generateTrace("thor", 3'000, 19);
    const Trace wide = scalingTrace(130, params);
    const std::vector<std::pair<const Trace *, std::vector<SchemeSpec>>>
        streams = {{&thor, parseSchemes(paperSchemes())},
                   {&wide, scalingSchemes()}};
    for (const auto &[source, stream_schemes] : streams) {
        const DecodedTrace decoded = decodeTrace(
            *source, defaultBlockBytes, SharingModel::ByProcess);
        SimConfig elided;
        SimConfig full;
        full.invariantCheckPeriod = decoded.numRecords();
        for (std::uint64_t w = 0; w < decoded.numRecords(); w += 149) {
            elided.warmupRefs = full.warmupRefs = w;
            for (const SchemeSpec &scheme : stream_schemes) {
                SCOPED_TRACE(source->name() + " " + scheme.name()
                             + " warm-up " + std::to_string(w));
                expectIdentical(simulateTrace(decoded, scheme, elided),
                                simulateTrace(decoded, scheme, full));
            }
        }
    }
}

/**
 * @p records records over four blocks and three pids: all fetches
 * (kind 0), all data (kind 1), or mixed (kind 2: two data records in
 * three, and the last record of every 64 a data record).
 */
Trace
patternTrace(std::size_t records, int kind)
{
    Trace trace("pattern" + std::to_string(kind), 4);
    for (std::size_t i = 0; i < records; ++i) {
        const auto pid = static_cast<ProcId>(1 + i % 3);
        const Addr addr = 0x40 * (i % 4) + 4 * (i % 3);
        const bool data =
            kind == 1 || (kind == 2 && (i % 3 != 0 || i % 64 == 63));
        if (!data)
            trace.append(test::instr(pid, 0x1000 + 4 * i));
        else if (i % 5 == 1)
            trace.append(test::write(pid, addr));
        else
            trace.append(test::read(pid, addr));
    }
    return trace;
}

TEST(DecodedTraceTest, ElidedWalkMatchesTheFullWalkAtBitmapWordEdges)
{
    // The elided walk turns the warm-up boundary into a data index by
    // a popcount over the bitmap; these boundaries sit on both sides
    // of its first two word edges, in a generated paper trace and in
    // a mixed pattern whose word-final records are data records.
    std::vector<std::string> schemes = allSchemes();
    schemes.push_back("DirCVr2");
    for (const Trace &trace :
         {generateTrace("pops", 1'000, 23), patternTrace(200, 2)}) {
        const DecodedTrace decoded = decodeTrace(
            trace, defaultBlockBytes, SharingModel::ByProcess);
        SimConfig elided;
        SimConfig full;
        full.invariantCheckPeriod = decoded.numRecords();
        for (const std::uint64_t w : {63u, 64u, 65u, 127u, 128u}) {
            elided.warmupRefs = full.warmupRefs = w;
            for (const std::string &name : schemes) {
                SCOPED_TRACE(trace.name() + " " + name + " warm-up "
                             + std::to_string(w));
                const SchemeSpec scheme = parseScheme(name);
                const SimResult result =
                    simulateTrace(decoded, scheme, elided);
                EXPECT_EQ(result.totalRefs, decoded.numRecords() - w);
                expectIdentical(result,
                                simulateTrace(decoded, scheme, full));
            }
        }
    }
}

/** Counts the data references a simulation reports to its sink. */
class CountingSink : public ProtocolTraceSink
{
  public:
    void emit(const ProtocolTraceEvent &) override {}
    void dataRef(BlockNum, CacheId, bool) override { ++dataRefs; }
    std::uint64_t dataRefs = 0;
};

TEST(DecodedTraceTest, SinkOnInfiniteCachesSeesEveryDataReference)
{
    const auto traces = smallSuite();
    const DecodedTrace decoded = decodeTrace(
        traces[0], defaultBlockBytes, SharingModel::ByProcess);
    ASSERT_LT(decoded.coherenceRefs.size(), decoded.dataRefs());
    for (const SchemeSpec &scheme : parseSchemes(paperSchemes())) {
        CountingSink sink;
        SimConfig config;
        config.traceSink = &sink;
        const SimResult traced = simulateTrace(decoded, scheme, config);
        EXPECT_EQ(sink.dataRefs, decoded.dataRefs()) << scheme.name();
        expectIdentical(traced, simulateTrace(decoded, scheme));
    }
}

/** Expect @p decode to throw a UsageError naming @p trace, the
 *  caches it needs and the limit. */
template <typename Decode>
void
expectDomainRejected(const Decode &decode, const std::string &trace,
                     const std::string &needed)
{
    try {
        decode();
        ADD_FAILURE() << "decoding '" << trace << "' did not throw";
    } catch (const UsageError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(trace), std::string::npos) << what;
        EXPECT_NE(what.find(needed), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(maxCacheDomain)),
                  std::string::npos)
            << what;
    }
}

TEST(DecodedTraceTest, ByProcessDomainAboveTheLimitIsRejected)
{
    Trace many("many_pids", 4);
    for (ProcId pid = 0; pid < 70'000; ++pid)
        many.append(test::read(pid, 0x40));
    expectDomainRejected(
        [&] {
            decodeTrace(many, defaultBlockBytes, SharingModel::ByProcess);
        },
        "many_pids", "70000");
    // By processor the same records need only their 4 CPUs' caches.
    EXPECT_EQ(decodeTrace(many, defaultBlockBytes,
                          SharingModel::ByProcessor)
                  .cachesNeeded,
              4u);
}

TEST(DecodedTraceTest, ByProcessorDomainAboveTheLimitIsRejected)
{
    // A reader accepts cpu 65535 when the header declares no count.
    Trace wide("wide_cpu", 0);
    wide.append(test::rec(65535, 7, RefType::Read, 0x40));
    expectDomainRejected(
        [&] {
            decodeTrace(wide, defaultBlockBytes,
                        SharingModel::ByProcessor);
        },
        "wide_cpu", "65536");

    // A file job fails while planning, before any cell runs.
    const std::string path = testing::TempDir() + "/decoded_wide_"
        + std::to_string(::getpid()) + ".txt";
    writeTextTraceFile(wide, path);
    SimConfig config;
    config.sharing = SharingModel::ByProcessor;
    EXPECT_THROW(buildPlan({{TraceRef::file(path), parseScheme("Dir0B"),
                             config}}),
                 UsageError);
}

TEST(DecodedTraceTest, ContentKeyIsPinned)
{
    // Values from before DecodedTrace carried its coherence index,
    // which is no part of the key: a moved key would orphan every
    // content-keyed cell-cache entry without an error.
    const Trace trace = TraceRecipe{"pops", 0, 20'000, 7}.generate();
    const DecodedTrace decoded = decodeTrace(trace, 16,
                                             SharingModel::ByProcess);
    ASSERT_EQ(decoded.numRecords(), 20'042u);
    const std::uint64_t checksum = traceChecksumFnv64(decoded);
    EXPECT_EQ(checksum, 0xe307d8a036816dd8ull);
    EXPECT_EQ(cellCacheKey(checksum, parseScheme("Dir1NB"), SimConfig{}),
              0x01ed81f0dd47b949ull);
}

/** A source over an in-memory trace that declares no size, as a text
 *  file does, so the decode grows every array as it goes. */
class UnsizedSource : public TraceSource
{
  public:
    explicit UnsizedSource(const Trace &trace_arg) : trace(trace_arg) {}

    bool
    next(TraceRecord &record) override
    {
        if (position == trace.size())
            return false;
        record = trace[position++];
        return true;
    }

    const std::string &name() const override { return trace.name(); }
    unsigned numCpus() const override { return trace.numCpus(); }
    const char *format() const override { return "unsized"; }

  private:
    const Trace &trace;
    std::size_t position = 0;
};

/**
 * The content checksum recomputed from the record-aligned arrays it
 * is defined over: per record of @p trace an op byte, a u32 block and
 * a u32 cache id, decodedOpInstr and zeros for a fetch.
 */
std::uint64_t
expandedChecksum(const Trace &trace, const DecodedTrace &decoded)
{
    std::vector<std::uint8_t> ops(trace.size(), decodedOpInstr);
    std::vector<std::uint32_t> blocks(trace.size(), 0);
    std::vector<std::uint32_t> caches(trace.size(), 0);
    std::uint64_t data_refs = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].isInstr())
            continue;
        ops[i] = decoded.ops.at(data_refs);
        blocks[i] = decoded.blocks.at(data_refs);
        caches[i] = decoded.caches.at(data_refs);
        ++data_refs;
    }
    traceformat::Fnv64 fnv;
    fnv.update(decoded.name.data(), decoded.name.size());
    const std::uint64_t shape[5] = {
        decoded.blockBytes,
        decoded.sharing == SharingModel::ByProcess ? 0u : 1u,
        decoded.cachesNeeded, decoded.cachesUsed, data_refs};
    fnv.update(shape, sizeof(shape));
    fnv.update(ops.data(), ops.size());
    fnv.update(blocks.data(), blocks.size() * sizeof(std::uint32_t));
    fnv.update(caches.data(), caches.size() * sizeof(std::uint32_t));
    fnv.update(decoded.denseToBlock.data(),
               decoded.denseToBlock.size() * sizeof(BlockNum));
    return fnv.value();
}

TEST(DecodedTraceTest, ChecksumHashesTheRecordAlignedLayout)
{
    // Record counts around the bitmap's word edges, with every record
    // a fetch, every record a data record, and a mix; decoded in
    // memory (sized) and from a source with no size hint.
    for (const std::size_t records :
         {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
        for (const int kind : {0, 1, 2}) {
            const Trace trace = patternTrace(records, kind);
            SCOPED_TRACE(trace.name() + " x " + std::to_string(records));
            const DecodedTrace sized = decodeTrace(
                trace, defaultBlockBytes, SharingModel::ByProcess);
            UnsizedSource source(trace);
            const DecodedTrace unsized = decodeTrace(
                source, defaultBlockBytes, SharingModel::ByProcess);
            EXPECT_EQ(unsized.dataBits, sized.dataBits);
            EXPECT_EQ(unsized.dataRefs(), sized.dataRefs());
            const std::uint64_t expected = expandedChecksum(trace, sized);
            EXPECT_EQ(traceChecksumFnv64(sized), expected);
            EXPECT_EQ(traceChecksumFnv64(unsized), expected);
        }
    }
}


} // namespace
} // namespace dirsim
