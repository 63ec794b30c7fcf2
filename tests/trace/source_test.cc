/**
 * @file
 * Tests for the streaming trace sources (trace/source.hh,
 * trace/reader.hh): record-at-a-time parity with the in-memory
 * readers, binary v1/v2 round trips over every flag combination,
 * header metadata exposure, and bounded-memory behaviour on a
 * synthetic stream that is never materialized.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <streambuf>

#include "common/logging.hh"
#include "test_util.hh"
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

namespace dirsim
{
namespace
{

/** Every (type, flag-combination) pair the formats can carry. */
Trace
exhaustiveTrace()
{
    Trace trace("combo", 4);
    const std::array<RefType, 3> types = {RefType::Instr,
                                          RefType::Read,
                                          RefType::Write};
    Addr addr = 0x1000;
    for (const auto type : types) {
        for (std::uint8_t flags = 0; flags <= flagKnownMask; ++flags) {
            if ((flags & ~flagKnownMask) != 0)
                continue;
            TraceRecord record;
            record.cpu = static_cast<CpuId>(addr % 4);
            record.pid = static_cast<ProcId>(100 + addr % 7);
            record.type = type;
            record.addr = addr;
            record.flags = flags;
            trace.append(record);
            addr += 0x40;
        }
    }
    return trace;
}

void
expectSameTrace(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.numCpus(), b.numCpus());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "record " << i;
}

TEST(TraceSourceTest, BinaryV1RoundTripsEveryFlagCombination)
{
    const Trace original = exhaustiveTrace();
    std::stringstream buffer;
    writeBinaryTrace(original, buffer, traceformat::versionV1);
    expectSameTrace(readBinaryTrace(buffer), original);
}

TEST(TraceSourceTest, BinaryV2RoundTripsEveryFlagCombination)
{
    const Trace original = exhaustiveTrace();
    std::stringstream buffer;
    writeBinaryTrace(original, buffer, traceformat::versionV2);
    expectSameTrace(readBinaryTrace(buffer), original);
}

TEST(TraceSourceTest, DefaultBinaryVersionIsV2)
{
    std::stringstream buffer;
    writeBinaryTrace(exhaustiveTrace(), buffer);
    BinaryTraceReader reader(buffer);
    EXPECT_EQ(reader.version(), traceformat::versionV2);
    EXPECT_STREQ(reader.format(), "binary v2");
}

TEST(TraceSourceTest, TextRoundTripsEveryFlagCombination)
{
    const Trace original = exhaustiveTrace();
    std::stringstream buffer;
    writeTextTrace(original, buffer);
    expectSameTrace(readTextTrace(buffer), original);
}

TEST(TraceSourceTest, StreamingBinaryMatchesMaterializedRead)
{
    const Trace original = exhaustiveTrace();
    std::stringstream buffer;
    writeBinaryTrace(original, buffer);

    BinaryTraceReader reader(buffer);
    EXPECT_EQ(reader.name(), "combo");
    EXPECT_EQ(reader.numCpus(), 4u);
    ASSERT_TRUE(reader.sizeHint().has_value());
    EXPECT_EQ(*reader.sizeHint(), original.size());

    TraceRecord record;
    std::size_t i = 0;
    while (reader.next(record)) {
        ASSERT_LT(i, original.size());
        EXPECT_EQ(record, original[i]) << "record " << i;
        ++i;
    }
    EXPECT_EQ(i, original.size());
    // Drained again: still a clean end, no double trailer read.
    EXPECT_FALSE(reader.next(record));
}

TEST(TraceSourceTest, StreamingTextMatchesMaterializedRead)
{
    const Trace original = exhaustiveTrace();
    std::stringstream buffer;
    writeTextTrace(original, buffer);

    TextTraceReader reader(buffer);
    EXPECT_EQ(reader.name(), "combo");
    EXPECT_EQ(reader.numCpus(), 4u);

    TraceRecord record;
    std::size_t i = 0;
    while (reader.next(record))
        EXPECT_EQ(record, original[i++]);
    EXPECT_EQ(i, original.size());
}

TEST(TraceSourceTest, HeaderKeysParseWhitespaceInsensitively)
{
    std::stringstream buffer(
        "#name:tight\n"
        "#   cpus   :   3\n"
        "0 1 read 100 -\n");
    TextTraceReader reader(buffer);
    EXPECT_EQ(reader.name(), "tight");
    EXPECT_EQ(reader.numCpus(), 3u);
    TraceRecord record;
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.addr, 0x100u);
    EXPECT_FALSE(reader.next(record));
}

TEST(TraceSourceTest, LateHashLinesAreComments)
{
    // Header keys are only recognized before the first record; a
    // '# cpus' afterwards must not retroactively change anything.
    std::stringstream buffer(
        "# cpus: 4\n"
        "0 1 read 100 -\n"
        "# cpus: 1\n"
        "3 1 read 140 -\n");
    const Trace loaded = readTextTrace(buffer);
    EXPECT_EQ(loaded.numCpus(), 4u);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[1].cpu, 3u);
}

/**
 * A read-only, non-seekable streambuf that synthesizes a binary v1
 * container on the fly: there is never more than one chunk of bytes
 * in memory, so reading N records through it proves the reader's
 * memory use does not scale with N.
 */
class SyntheticTraceBuf : public std::streambuf
{
  public:
    explicit SyntheticTraceBuf(std::uint64_t count_arg)
        : count(count_arg)
    {
        using namespace traceformat;
        buffer.reserve(512 * recordBytes);
        for (const char byte : magic)
            buffer.push_back(byte);
        appendLe<std::uint16_t>(versionV1);
        appendLe<std::uint16_t>(4); // cpus
        appendLe<std::uint32_t>(3); // name length
        buffer.push_back('b');
        buffer.push_back('i');
        buffer.push_back('g');
        appendLe<std::uint64_t>(count);
        setg(buffer.data(), buffer.data(),
             buffer.data() + buffer.size());
    }

  protected:
    int_type
    underflow() override
    {
        if (produced >= count)
            return traits_type::eof();
        buffer.clear();
        const std::uint64_t batch =
            std::min<std::uint64_t>(count - produced, 512);
        for (std::uint64_t i = 0; i < batch; ++i, ++produced) {
            appendLe<std::uint64_t>(produced * 64); // addr
            appendLe<std::uint32_t>(
                static_cast<std::uint32_t>(produced % 8)); // pid
            appendLe<std::uint16_t>(
                static_cast<std::uint16_t>(produced % 4)); // cpu
            buffer.push_back(1); // type = read
            buffer.push_back(0); // flags
        }
        setg(buffer.data(), buffer.data(),
             buffer.data() + buffer.size());
        return traits_type::to_int_type(*gptr());
    }

  private:
    template <typename T>
    void
    appendLe(T value)
    {
        unsigned char bytes[sizeof(T)];
        traceformat::encodeLe(bytes, value);
        buffer.insert(buffer.end(), bytes, bytes + sizeof(bytes));
    }

    std::uint64_t count;
    std::uint64_t produced = 0;
    std::vector<char> buffer;
};

TEST(TraceSourceTest, StreamsMillionsOfRecordsWithoutMaterializing)
{
    // 1M records = 16 MB of serialized trace that never exists in
    // memory at once: the synthetic buffer holds <= 512 records and
    // the reader holds exactly one.
    constexpr std::uint64_t records = 1'000'000;
    SyntheticTraceBuf buf(records);
    std::istream is(&buf);
    BinaryTraceReader reader(is);

    EXPECT_EQ(reader.name(), "big");
    // Non-seekable stream: the declared count cannot be verified
    // against the container length, so it must not be advertised as
    // an allocation hint.
    EXPECT_FALSE(reader.sizeHint().has_value());

    TraceRecord record;
    std::uint64_t seen = 0;
    while (reader.next(record)) {
        if (seen == 123'456) {
            EXPECT_EQ(record.addr, 123'456u * 64);
            EXPECT_EQ(record.pid, 123'456u % 8);
        }
        ++seen;
    }
    EXPECT_EQ(seen, records);
}

TEST(TraceSourceTest, FileRoundTripThroughOpenTraceSource)
{
    const Trace original = exhaustiveTrace();
    const std::string bin = testing::TempDir() + "/source_rt.trace";
    const std::string txt = testing::TempDir() + "/source_rt.txt";
    writeBinaryTraceFile(original, bin);
    writeTextTraceFile(original, txt);

    const auto bin_source = openTraceSource(bin);
    EXPECT_STREQ(bin_source->format(), "binary v2");
    expectSameTrace(readTrace(*bin_source), original);

    const auto txt_source = openTraceSource(txt);
    EXPECT_STREQ(txt_source->format(), "text");
    expectSameTrace(readTrace(*txt_source), original);
}

TEST(TraceSourceTest, OneTextPathRuleForReadWriteAndStream)
{
    EXPECT_TRUE(isTextTracePath("a.txt"));
    EXPECT_TRUE(isTextTracePath(".txt"));
    EXPECT_FALSE(isTextTracePath("a.trace"));
    EXPECT_FALSE(isTextTracePath("a.txt.gz"));
    EXPECT_FALSE(isTextTracePath("a.TXT"));

    // writeTraceFile() and readTraceFile() pick the format by the same
    // rule openTraceSource() streams it by.
    const Trace original = exhaustiveTrace();
    for (const char *name : {"/helpers_rt.trace", "/helpers_rt.txt"}) {
        const std::string path = testing::TempDir() + name;
        writeTraceFile(original, path);
        EXPECT_STREQ(openTraceSource(path)->format(),
                     isTextTracePath(path) ? "text" : "binary v2")
            << path;
        expectSameTrace(readTraceFile(path), original);
    }
}

TEST(TraceSourceTest, WriterRejectsUnserializableTraces)
{
    Trace stray("stray", 4);
    TraceRecord record;
    record.cpu = 1;
    record.flags = 1u << 5; // no defined meaning
    stray.append(record);
    std::stringstream buffer;
    EXPECT_THROW(writeBinaryTrace(stray, buffer), UsageError);

    std::stringstream version_buffer;
    EXPECT_THROW(writeBinaryTrace(exhaustiveTrace(), version_buffer, 7),
                 UsageError);
}

} // namespace
} // namespace dirsim
