/** @file Round-trip and error tests for trace reader/writer. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "test_util.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

using test::instr;
using test::read;
using test::write;

Trace
sampleTrace()
{
    Trace trace("sample", 4);
    trace.append(read(100, 0x1000, flagLockSpin));
    trace.append(write(101, 0x2000, flagLockWrite));
    trace.append(instr(102, 0x3000));
    trace.append(read(103, 0xdeadbeefcafe, flagSystem));
    trace.append(write(100, 0x2010,
                       static_cast<std::uint8_t>(flagLockWrite
                                                 | flagSystem)));
    return trace;
}

TEST(SerializationTest, BinaryRoundTrip)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    writeBinaryTrace(original, buffer);
    const Trace loaded = readBinaryTrace(buffer);

    EXPECT_EQ(loaded.name(), original.name());
    EXPECT_EQ(loaded.numCpus(), original.numCpus());
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded[i], original[i]) << "record " << i;
}

TEST(SerializationTest, TextRoundTrip)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    writeTextTrace(original, buffer);
    const Trace loaded = readTextTrace(buffer);

    EXPECT_EQ(loaded.name(), original.name());
    EXPECT_EQ(loaded.numCpus(), original.numCpus());
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded[i], original[i]) << "record " << i;
}

TEST(SerializationTest, BinaryRoundTripOfGeneratedTrace)
{
    const Trace original = generateTrace("pero", 20'000, 5);
    std::stringstream buffer;
    writeBinaryTrace(original, buffer);
    const Trace loaded = readBinaryTrace(buffer);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); i += 997)
        EXPECT_EQ(loaded[i], original[i]);
}

TEST(SerializationTest, EmptyTraceRoundTrips)
{
    Trace trace("empty", 1);
    std::stringstream buffer;
    writeBinaryTrace(trace, buffer);
    const Trace loaded = readBinaryTrace(buffer);
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_EQ(loaded.name(), "empty");
}

TEST(SerializationTest, BinaryRejectsBadMagic)
{
    std::stringstream buffer("NOPE rest of the file");
    EXPECT_THROW(readBinaryTrace(buffer), UsageError);
}

TEST(SerializationTest, BinaryRejectsTruncation)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    writeBinaryTrace(original, buffer);
    const std::string bytes = buffer.str();
    // Chop mid-record.
    std::stringstream truncated(bytes.substr(0, bytes.size() - 7));
    EXPECT_THROW(readBinaryTrace(truncated), UsageError);
}

TEST(SerializationTest, BinaryRejectsBadRecordType)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    writeBinaryTrace(original, buffer);
    std::string bytes = buffer.str();
    // Corrupt the type byte of the first record: header is
    // 4 (magic) + 2 + 2 + 4 + 6 (name "sample") + 8 = 26 bytes, and
    // the type byte sits at offset 14 within the 16-byte record.
    bytes[26 + 14] = 9;
    std::stringstream corrupted(bytes);
    EXPECT_THROW(readBinaryTrace(corrupted), UsageError);
}

TEST(SerializationTest, TextRejectsMalformedLine)
{
    std::stringstream buffer("# cpus: 4\nnot a record line\n");
    EXPECT_THROW(readTextTrace(buffer), UsageError);
}

TEST(SerializationTest, TextRejectsBadAddress)
{
    std::stringstream buffer("0 1 read zzz -\n");
    EXPECT_THROW(readTextTrace(buffer), UsageError);
}

TEST(SerializationTest, TextRejectsUnknownFlag)
{
    std::stringstream buffer("0 1 read 100 wibble\n");
    EXPECT_THROW(readTextTrace(buffer), UsageError);
}

TEST(SerializationTest, TextIgnoresUnknownHeaders)
{
    std::stringstream buffer(
        "# dirsim-trace v1\n# name: foo\n# cpus: 2\n"
        "# comment: whatever\n0 1 read 100 -\n");
    const Trace loaded = readTextTrace(buffer);
    EXPECT_EQ(loaded.name(), "foo");
    EXPECT_EQ(loaded.numCpus(), 2u);
    ASSERT_EQ(loaded.size(), 1u);
}

TEST(SerializationTest, TextSkipsBlankLines)
{
    std::stringstream buffer("\n0 1 write 40 -\n\n");
    const Trace loaded = readTextTrace(buffer);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded[0].isWrite());
    EXPECT_EQ(loaded[0].addr, 0x40u);
}

TEST(SerializationTest, FileRoundTrip)
{
    const Trace original = sampleTrace();
    const std::string path =
        testing::TempDir() + "/dirsim_roundtrip.trace";
    writeBinaryTraceFile(original, path);
    const Trace loaded = readTraceFile(path);
    EXPECT_EQ(loaded.size(), original.size());
}

TEST(SerializationTest, MissingFileThrows)
{
    EXPECT_THROW(readTraceFile("/nonexistent/dir/x.trace"),
                 UsageError);
    EXPECT_THROW(readTraceFile("/nonexistent/dir/x.txt"),
                 UsageError);
}

} // namespace
} // namespace dirsim
