#include "trace/reader.hh"

#include <cctype>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace dirsim
{

namespace
{

using namespace traceformat;

/** Cap speculative reservations driven by untrusted size fields. */
constexpr std::uint64_t maxSpeculativeReserve = 1u << 20;

/** True when every character of @p s is a decimal digit. */
bool
allDigits(const std::string &s)
{
    if (s.empty())
        return false;
    for (const char c : s)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/** True when every character of @p s is a hex digit. */
bool
allHexDigits(const std::string &s)
{
    if (s.empty())
        return false;
    for (const char c : s)
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/** Strip leading and trailing blanks. */
std::string
trim(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t");
    return s.substr(first, last - first + 1);
}

std::uint8_t
parseFlags(const std::string &field, std::size_t line_no)
{
    if (field == "-")
        return flagNone;
    std::uint8_t flags = flagNone;
    std::stringstream ss(field);
    std::string token;
    while (std::getline(ss, token, ',')) {
        if (token == "lockspin")
            flags |= flagLockSpin;
        else if (token == "lockwrite")
            flags |= flagLockWrite;
        else if (token == "system")
            flags |= flagSystem;
        else
            fatal("text trace line ", line_no, ": unknown flag '",
                  token, "'");
    }
    return flags;
}

} // namespace

Trace
readTrace(TraceSource &source)
{
    Trace trace(source.name(), source.numCpus());
    if (const auto hint = source.sizeHint())
        trace.reserve(static_cast<std::size_t>(
            std::min(*hint, maxSpeculativeReserve)));
    TraceRecord record;
    while (source.next(record))
        trace.append(record);
    return trace;
}

// --- BinaryTraceReader ---------------------------------------------------

BinaryTraceReader::BinaryTraceReader(std::istream &is_arg) : is(is_arg)
{
    parseHeader();
}

BinaryTraceReader::BinaryTraceReader(const std::string &path)
    : owned(path, std::ios::binary), is(owned)
{
    fatalIf(!owned, "cannot open '", path, "' for reading");
    parseHeader();
}

void
BinaryTraceReader::readBytes(void *out, std::size_t size,
                             const char *what)
{
    is.read(static_cast<char *>(out), static_cast<std::streamsize>(size));
    fatalIf(!is, "truncated binary trace at byte offset ",
            offset + static_cast<std::uint64_t>(is.gcount()),
            " while reading ", what);
    offset += size;
    checksum.update(out, size);
}

void
BinaryTraceReader::parseHeader()
{
    char file_magic[4];
    readBytes(file_magic, sizeof(file_magic), "magic");
    fatalIf(std::string(file_magic, 4) != std::string(magic, 4),
            "not a dirsim binary trace (bad magic)");

    unsigned char fields[2 + 2 + 4];
    readBytes(fields, sizeof(fields), "header");
    ver = decodeLe<std::uint16_t>(fields);
    fatalIf(ver != versionV1 && ver != versionV2,
            "unsupported binary trace version ", ver);
    cpus = decodeLe<std::uint16_t>(fields + 2);
    const auto name_len = decodeLe<std::uint32_t>(fields + 4);
    fatalIf(name_len > maxNameLen, "implausible trace name length ",
            name_len, " (max ", maxNameLen, ")");
    traceName.resize(name_len);
    if (name_len > 0)
        readBytes(traceName.data(), name_len, "name");

    unsigned char count_bytes[8];
    readBytes(count_bytes, sizeof(count_bytes), "record count");
    count = decodeLe<std::uint64_t>(count_bytes);

    // Length consistency: on a seekable stream the declared count must
    // be backed by actual bytes, so a corrupt count is a clean
    // diagnostic here instead of an OOM in reserve() or a long read.
    const auto pos = is.tellg();
    if (pos != std::streampos(-1)) {
        is.seekg(0, std::ios::end);
        const auto end = is.tellg();
        is.seekg(pos);
        if (end != std::streampos(-1) && is) {
            const auto remaining =
                static_cast<std::uint64_t>(end - pos);
            const std::uint64_t trailer =
                ver >= versionV2 ? checksumBytes : 0;
            fatalIf(count > (remaining - std::min<std::uint64_t>(
                                 trailer, remaining)) / recordBytes,
                    "binary trace declares ", count,
                    " records but only ", remaining,
                    " bytes follow the header (need ",
                    count, " * ", recordBytes, trailer ? " + 8" : "",
                    ")");
            countChecked = true;
        } else {
            is.clear();
            is.seekg(pos);
        }
    } else {
        is.clear();
    }
}

std::optional<std::uint64_t>
BinaryTraceReader::sizeHint() const
{
    // Only advertise the declared count once it has been validated
    // against the container length; an unverifiable count must not
    // drive anyone's allocations.
    if (!countChecked)
        return std::nullopt;
    return count;
}

const char *
BinaryTraceReader::format() const
{
    return ver >= versionV2 ? "binary v2" : "binary v1";
}

void
BinaryTraceReader::verifyTrailer()
{
    drained = true;
    if (ver < versionV2)
        return;
    const std::uint64_t computed = checksum.value();
    unsigned char trailer[checksumBytes];
    is.read(reinterpret_cast<char *>(trailer), sizeof(trailer));
    fatalIf(!is, "truncated binary trace at byte offset ",
            offset + static_cast<std::uint64_t>(is.gcount()),
            " while reading checksum");
    offset += checksumBytes;
    const auto stored = decodeLe<std::uint64_t>(trailer);
    fatalIf(stored != computed,
            "binary trace checksum mismatch: file says 0x",
            std::hex, stored, " but the ", std::dec, count,
            " records hash to 0x", std::hex, computed,
            std::dec, " — the trace is corrupt");
}

bool
BinaryTraceReader::next(TraceRecord &record)
{
    if (index >= count) {
        if (!drained)
            verifyTrailer();
        return false;
    }

    unsigned char bytes[recordBytes];
    is.read(reinterpret_cast<char *>(bytes), sizeof(bytes));
    fatalIf(!is, "truncated binary trace at byte offset ",
            offset + static_cast<std::uint64_t>(is.gcount()),
            " while reading record ", index, " of ", count);
    checksum.update(bytes, sizeof(bytes));

    record.addr = decodeLe<std::uint64_t>(bytes);
    record.pid = decodeLe<std::uint32_t>(bytes + 8);
    record.cpu = decodeLe<std::uint16_t>(bytes + 12);
    const auto type = bytes[14];
    fatalIf(type > 2, "binary trace record ", index,
            " (byte offset ", offset, ") has invalid type ",
            static_cast<int>(type));
    record.type = static_cast<RefType>(type);
    const auto flags = bytes[15];
    fatalIf((flags & ~flagKnownMask) != 0, "binary trace record ",
            index, " (byte offset ", offset,
            ") has unknown flag bits 0x", std::hex,
            static_cast<int>(flags & ~flagKnownMask), std::dec);
    record.flags = flags;
    fatalIf(cpus != 0 && record.cpu >= cpus, "binary trace record ",
            index, " (byte offset ", offset, ") names cpu ",
            record.cpu, " but the header declares only ", cpus,
            " CPUs");

    offset += recordBytes;
    ++index;
    return true;
}

// --- TextTraceReader -----------------------------------------------------

TextTraceReader::TextTraceReader(std::istream &is_arg) : is(is_arg)
{
    parseLeadingHeader();
}

TextTraceReader::TextTraceReader(const std::string &path)
    : owned(path), is(owned)
{
    fatalIf(!owned, "cannot open '", path, "' for reading");
    parseLeadingHeader();
}

void
TextTraceReader::parseHeaderLine(const std::string &line)
{
    const auto colon = line.find(':');
    if (colon == std::string::npos)
        return; // free-form comment
    const std::string key = trim(line.substr(1, colon - 1));
    const std::string value = trim(line.substr(colon + 1));
    if (key == "name") {
        traceName = value;
    } else if (key == "cpus") {
        fatalIf(!allDigits(value), "text trace line ", lineNo,
                ": cpu count '", value, "' is not a number");
        fatalIf(value.size() > 5 || std::stoul(value) > 0xffff,
                "text trace line ", lineNo, ": cpu count ", value,
                " is out of range (max 65535)");
        cpus = static_cast<unsigned>(std::stoul(value));
    }
    // Unknown keys are ignored so the format can grow.
}

bool
TextTraceReader::parseRecordLine(const std::string &line,
                                 TraceRecord &record)
{
    if (line.empty() || trim(line).empty())
        return false;
    if (line[0] == '#') {
        if (!headerDone) // still in the leading header block
            parseHeaderLine(line);
        return false; // later '#' lines are comments
    }
    headerDone = true;

    std::istringstream fields(line);
    std::string cpu_field, pid_field, type, addr_hex;
    std::string flags = "-";
    fields >> cpu_field >> pid_field >> type >> addr_hex;
    fatalIf(fields.fail(), "text trace line ", lineNo,
            ": malformed record '", line, "'");
    fields >> flags;

    fatalIf(!allDigits(cpu_field), "text trace line ", lineNo,
            ": cpu '", cpu_field, "' is not a number");
    fatalIf(cpu_field.size() > 5 || std::stoul(cpu_field) > 0xffff,
            "text trace line ", lineNo, ": cpu ", cpu_field,
            " is out of range (max 65535)");
    record.cpu = static_cast<CpuId>(std::stoul(cpu_field));
    fatalIf(cpus != 0 && record.cpu >= cpus, "text trace line ",
            lineNo, ": cpu ", record.cpu,
            " but the header declares only ", cpus, " CPUs");

    fatalIf(!allDigits(pid_field), "text trace line ", lineNo,
            ": pid '", pid_field, "' is not a number");
    fatalIf(pid_field.size() > 10
                || std::stoull(pid_field)
                       > std::numeric_limits<std::uint32_t>::max(),
            "text trace line ", lineNo, ": pid ", pid_field,
            " is out of range (max 2^32-1)");
    record.pid = static_cast<ProcId>(std::stoull(pid_field));

    try {
        record.type = refTypeFromString(type);
    } catch (const SimulationError &) {
        fatal("text trace line ", lineNo,
              ": unknown reference type '", type, "'");
    }

    fatalIf(!allHexDigits(addr_hex) || addr_hex.size() > 16,
            "text trace line ", lineNo, ": bad address '", addr_hex,
            "'");
    record.addr = std::stoull(addr_hex, nullptr, 16);

    record.flags = parseFlags(flags, lineNo);
    return true;
}

void
TextTraceReader::parseLeadingHeader()
{
    std::string line;
    while (std::getline(is, line)) {
        ++lineNo;
        if (parseRecordLine(line, pending)) {
            havePending = true;
            return;
        }
    }
}

bool
TextTraceReader::next(TraceRecord &record)
{
    if (havePending) {
        record = pending;
        havePending = false;
        return true;
    }
    std::string line;
    while (std::getline(is, line)) {
        ++lineNo;
        TraceRecord parsed;
        if (parseRecordLine(line, parsed)) {
            record = parsed;
            return true;
        }
    }
    return false;
}

// --- whole-trace convenience ---------------------------------------------

bool
isTextTracePath(const std::string &path)
{
    return path.ends_with(".txt");
}

std::unique_ptr<TraceSource>
openTraceSource(const std::string &path)
{
    if (isTextTracePath(path))
        return std::make_unique<TextTraceReader>(path);
    return std::make_unique<BinaryTraceReader>(path);
}

Trace
readTraceFile(const std::string &path)
{
    return readTrace(*openTraceSource(path));
}

Trace
readBinaryTrace(std::istream &is)
{
    BinaryTraceReader reader(is);
    return readTrace(reader);
}

Trace
readTextTrace(std::istream &is)
{
    TextTraceReader reader(is);
    return readTrace(reader);
}

} // namespace dirsim
