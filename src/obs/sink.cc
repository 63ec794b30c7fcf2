#include "obs/sink.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace dirsim
{

namespace
{

std::unique_ptr<std::ofstream>
openFile(const std::string &path)
{
    auto file = std::make_unique<std::ofstream>(
        path, std::ios::binary | std::ios::trunc);
    fatalIf(!*file, "cannot open '", path, "' for writing");
    return file;
}

} // namespace

JsonlSink::JsonlSink(std::ostream &os_arg) : os(&os_arg) {}

JsonlSink::JsonlSink(const std::string &path_arg)
    : owned(openFile(path_arg)), os(owned.get()), path(path_arg)
{}

std::ostream &
JsonlSink::stream()
{
    fatalIf(finished, "JsonlSink written to after finish()");
    return *os;
}

void
JsonlSink::writeManifest(const RunManifest &manifest)
{
    JsonWriter writer(stream());
    manifest.writeJson(writer);
    stream() << '\n';
}

void
JsonlSink::writeCell(const CellRecord &record)
{
    JsonWriter writer(stream());
    record.writeJson(writer);
    stream() << '\n';
}

void
JsonlSink::writeMetrics(const MetricRegistry &metrics)
{
    JsonWriter writer(stream());
    writer.beginObject();
    writer.key("kind").value("metrics");
    writer.key("metrics");
    metrics.writeJson(writer);
    writer.endObject();
    stream() << '\n';
}

void
JsonlSink::finish()
{
    fatalIf(finished, "JsonlSink::finish() called twice");
    finished = true;
    os->flush();
    fatalIf(os->fail(), "I/O error writing results",
            path.empty() ? std::string()
                         : (" to '" + path + "'"));
}

} // namespace dirsim
