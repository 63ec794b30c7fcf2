/**
 * @file
 * Deserialization of dirsim traces (binary and text formats).
 *
 * Two layers:
 *
 *  - Streaming readers (BinaryTraceReader, TextTraceReader,
 *    openTraceSource): record-at-a-time TraceSource implementations
 *    whose memory use is independent of trace length. All input
 *    validation lives here — header sanity, record-count/length
 *    consistency, per-record type/flag/cpu legality, and the binary
 *    v2 trailing checksum.
 *
 *  - Whole-trace convenience functions (readBinaryTrace, ...): drain
 *    a streaming reader into an in-memory Trace. They inherit every
 *    validation rule above.
 *
 * Every malformed input is rejected with a UsageError naming the
 * offending line (text) or byte offset (binary); no input, however
 * hostile, causes a crash, an uncaught exception of another type, or
 * an allocation the input's actual size does not back.
 */

#ifndef DIRSIM_TRACE_READER_HH
#define DIRSIM_TRACE_READER_HH

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <string>

#include "trace/format.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace dirsim
{

/**
 * Streams records from a binary trace container (format v1 or v2,
 * see trace/format.hh).
 *
 * The header is parsed and validated on construction: magic, version,
 * name length, and — whenever the stream is seekable — the declared
 * record count against the bytes actually present, so a corrupt
 * 64-bit count is diagnosed up front instead of driving allocations
 * or a long read. For v2 containers the trailing FNV-1a checksum is
 * verified when the last record has been consumed.
 */
class BinaryTraceReader : public TraceSource
{
  public:
    /** Stream from @p is_arg (not owned; must outlive the reader). */
    explicit BinaryTraceReader(std::istream &is_arg);

    /** Open @p path and stream from it. */
    explicit BinaryTraceReader(const std::string &path);

    bool next(TraceRecord &record) override;
    const std::string &name() const override { return traceName; }
    unsigned numCpus() const override { return cpus; }
    std::optional<std::uint64_t> sizeHint() const override;
    const char *format() const override;

    /** Container format version (1 or 2). */
    std::uint16_t version() const { return ver; }

  private:
    void parseHeader();
    void readBytes(void *out, std::size_t size, const char *what);
    void verifyTrailer();

    std::ifstream owned; ///< backing file for the path constructor
    std::istream &is;
    std::string traceName;
    unsigned cpus = 0;
    std::uint16_t ver = 0;
    std::uint64_t count = 0;
    std::uint64_t index = 0;
    std::uint64_t offset = 0; ///< bytes consumed, for diagnostics
    bool countChecked = false; ///< count validated against length
    bool drained = false;
    traceformat::Fnv64 checksum;
};

/**
 * Streams records from a text trace.
 *
 * Header lines ('# key: value', any spacing around the key) are
 * consumed up front, so name()/numCpus() are valid immediately;
 * unknown keys and '#' lines after the first record are ignored as
 * comments. Record fields are range-checked (cpu against the declared
 * CPU count and the 16-bit format limit, pid against 32 bits, flags
 * against the known set); every rejection names the input line.
 */
class TextTraceReader : public TraceSource
{
  public:
    /** Stream from @p is_arg (not owned; must outlive the reader). */
    explicit TextTraceReader(std::istream &is_arg);

    /** Open @p path and stream from it. */
    explicit TextTraceReader(const std::string &path);

    bool next(TraceRecord &record) override;
    const std::string &name() const override { return traceName; }
    unsigned numCpus() const override { return cpus; }
    const char *format() const override { return "text"; }

  private:
    void parseLeadingHeader();
    void parseHeaderLine(const std::string &line);
    bool parseRecordLine(const std::string &line, TraceRecord &record);

    std::ifstream owned; ///< backing file for the path constructor
    std::istream &is;
    std::string traceName;
    unsigned cpus = 0;
    std::size_t lineNo = 0;
    bool headerDone = false; ///< a record line has been seen
    bool havePending = false;
    TraceRecord pending;
};

/**
 * The file-name rule of every trace-file entry point: a path ending
 * in ".txt" is a text trace, every other path a binary container.
 */
bool isTextTracePath(const std::string &path);

/**
 * Open a trace file as a streaming source, text or binary by
 * isTextTracePath().
 *
 * @throws UsageError if the file cannot be opened or its header is
 *         malformed
 */
std::unique_ptr<TraceSource> openTraceSource(const std::string &path);

/** Read a trace file into memory, text or binary by
 *  isTextTracePath(). */
Trace readTraceFile(const std::string &path);

/**
 * Read a binary trace written by writeBinaryTrace() into memory.
 *
 * @throws UsageError on bad magic, unsupported version, truncated
 *         input, corrupt records, or a v2 checksum mismatch
 */
Trace readBinaryTrace(std::istream &is);

/**
 * Read a text trace written by writeTextTrace() into memory.
 *
 * Unknown '#' header keys are ignored; malformed header or record
 * lines throw UsageError with the offending line number.
 */
Trace readTextTrace(std::istream &is);

} // namespace dirsim

#endif // DIRSIM_TRACE_READER_HH
