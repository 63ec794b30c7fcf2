#include "trace/writer.hh"

#include <fstream>
#include <ostream>

#include "common/logging.hh"
#include "trace/reader.hh"

namespace dirsim
{

namespace
{

using namespace traceformat;

/** Serializes and, for v2, feeds every byte through the checksum. */
class BinarySink
{
  public:
    BinarySink(std::ostream &os_arg, bool checksummed_arg)
        : os(os_arg), checksummed(checksummed_arg)
    {}

    void
    write(const void *data, std::size_t size)
    {
        os.write(static_cast<const char *>(data),
                 static_cast<std::streamsize>(size));
        if (checksummed)
            checksum.update(data, size);
    }

    template <typename T>
    void
    put(T value)
    {
        unsigned char bytes[sizeof(T)];
        encodeLe(bytes, value);
        write(bytes, sizeof(bytes));
    }

    /** Emit the v2 trailer (not itself checksummed). */
    void
    finish()
    {
        if (!checksummed)
            return;
        unsigned char bytes[checksumBytes];
        encodeLe(bytes, checksum.value());
        os.write(reinterpret_cast<const char *>(bytes),
                 sizeof(bytes));
    }

  private:
    std::ostream &os;
    bool checksummed;
    Fnv64 checksum;
};

std::string
flagNames(std::uint8_t flags)
{
    std::string out;
    const auto append = [&out](const char *name) {
        if (!out.empty())
            out.push_back(',');
        out += name;
    };
    if (flags & flagLockSpin)
        append("lockspin");
    if (flags & flagLockWrite)
        append("lockwrite");
    if (flags & flagSystem)
        append("system");
    return out.empty() ? "-" : out;
}

} // namespace

void
writeBinaryTrace(const Trace &trace, std::ostream &os,
                 std::uint16_t version)
{
    fatalIf(version != versionV1 && version != versionV2,
            "cannot write binary trace version ", version,
            " (supported: 1, 2)");
    fatalIf(trace.name().size() > maxNameLen, "trace name of ",
            trace.name().size(), " bytes exceeds the format limit of ",
            maxNameLen);
    fatalIf(trace.numCpus() > 0xffff, "trace declares ",
            trace.numCpus(),
            " CPUs but the binary format caps at 65535");

    BinarySink sink(os, version >= versionV2);
    sink.write(magic, sizeof(magic));
    sink.put<std::uint16_t>(version);
    sink.put<std::uint16_t>(static_cast<std::uint16_t>(trace.numCpus()));
    sink.put<std::uint32_t>(
        static_cast<std::uint32_t>(trace.name().size()));
    sink.write(trace.name().data(), trace.name().size());
    sink.put<std::uint64_t>(trace.size());
    std::size_t index = 0;
    for (const auto &record : trace) {
        fatalIf((record.flags & ~flagKnownMask) != 0,
                "trace record ", index, " carries unknown flag bits 0x",
                std::hex,
                static_cast<int>(record.flags & ~flagKnownMask),
                std::dec, "; refusing to serialize them");
        sink.put<std::uint64_t>(record.addr);
        sink.put<std::uint32_t>(record.pid);
        sink.put<std::uint16_t>(record.cpu);
        sink.put<std::uint8_t>(static_cast<std::uint8_t>(record.type));
        sink.put<std::uint8_t>(record.flags);
        ++index;
    }
    sink.finish();
    fatalIf(!os, "I/O error while writing binary trace '",
            trace.name(), "'");
}

void
writeBinaryTraceFile(const Trace &trace, const std::string &path,
                     std::uint16_t version)
{
    std::ofstream os(path, std::ios::binary);
    fatalIf(!os, "cannot open '", path, "' for writing");
    writeBinaryTrace(trace, os, version);
}

void
writeTextTrace(const Trace &trace, std::ostream &os)
{
    os << "# dirsim-trace v1\n";
    os << "# name: " << trace.name() << '\n';
    os << "# cpus: " << trace.numCpus() << '\n';
    for (const auto &record : trace) {
        os << record.cpu << ' ' << record.pid << ' '
           << toString(record.type) << ' ' << std::hex << record.addr
           << std::dec << ' ' << flagNames(record.flags) << '\n';
    }
    fatalIf(!os, "I/O error while writing text trace '",
            trace.name(), "'");
}

void
writeTextTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream os(path);
    fatalIf(!os, "cannot open '", path, "' for writing");
    writeTextTrace(trace, os);
}

void
writeTraceFile(const Trace &trace, const std::string &path)
{
    if (isTextTracePath(path))
        writeTextTraceFile(trace, path);
    else
        writeBinaryTraceFile(trace, path);
}

} // namespace dirsim
