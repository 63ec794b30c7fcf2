#include "obs/manifest.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include <unistd.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/logging.hh"
#include "trace/format.hh"

extern char **environ;

namespace dirsim
{

namespace
{

/** Hex spelling of a checksum ("0x" free, zero-padded to 16). */
std::string
checksumHex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::uint64_t
parseChecksumHex(const std::string &hex)
{
    fatalIf(hex.empty() || hex.size() > 16,
            "manifest checksum '", hex, "' is not a 64-bit hex value");
    std::uint64_t value = 0;
    for (const char c : hex) {
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            value |= static_cast<std::uint64_t>(c - 'A' + 10);
        else
            fatal("manifest checksum '", hex,
                  "' is not a 64-bit hex value");
    }
    return value;
}

const char *
toString(SharingModel sharing)
{
    return sharing == SharingModel::ByProcess ? "process"
                                              : "processor";
}

SharingModel
sharingFromString(const std::string &name)
{
    if (name == "process")
        return SharingModel::ByProcess;
    if (name == "processor")
        return SharingModel::ByProcessor;
    fatal("manifest sharing '", name,
          "' is neither 'process' nor 'processor'");
}

} // namespace

// fileChecksumFnv64() moved to sim/job.cc (the cell cache keys need
// it below the obs layer); the declaration in manifest.hh remains
// valid for existing callers.

std::vector<std::pair<std::string, std::string>>
dirsimEnvironment()
{
    std::vector<std::pair<std::string, std::string>> vars;
    for (char **entry = environ; entry != nullptr && *entry != nullptr;
         ++entry) {
        const std::string_view var(*entry);
        if (var.rfind("DIRSIM_", 0) != 0)
            continue;
        const auto eq = var.find('=');
        if (eq == std::string_view::npos)
            continue;
        vars.emplace_back(std::string(var.substr(0, eq)),
                          std::string(var.substr(eq + 1)));
    }
    std::sort(vars.begin(), vars.end());
    return vars;
}

RunManifest
RunManifest::capture(const std::vector<SchemeSpec> &schemes,
                     const SimConfig &config)
{
    RunManifest manifest;
    char host[256] = {};
    if (gethostname(host, sizeof(host) - 1) == 0)
        manifest.host = host;
    manifest.blockBytes = config.blockBytes;
    manifest.sharing = toString(config.sharing);
    manifest.warmupRefs = config.warmupRefs;
    manifest.invariantCheckPeriod = config.invariantCheckPeriod;
    if (config.finiteCache) {
        manifest.hasFiniteCache = true;
        manifest.finiteCapacityBytes =
            config.finiteCache->capacityBytes;
        manifest.finiteWays = config.finiteCache->ways;
    }
    manifest.schemes.reserve(schemes.size());
    for (const SchemeSpec &scheme : schemes)
        manifest.schemes.push_back(scheme.name());
    manifest.env = dirsimEnvironment();
    return manifest;
}

void
RunManifest::stampStart()
{
    startedAt = logTimestampUtc();
}

void
RunManifest::stampFinish()
{
    finishedAt = logTimestampUtc();
}

SimConfig
RunManifest::toSimConfig() const
{
    SimConfig config;
    config.blockBytes = blockBytes;
    config.sharing = sharingFromString(sharing);
    config.warmupRefs = warmupRefs;
    config.invariantCheckPeriod = invariantCheckPeriod;
    if (hasFiniteCache) {
        FiniteCacheConfig cache;
        cache.capacityBytes = finiteCapacityBytes;
        cache.ways = finiteWays;
        cache.blockBytes = blockBytes;
        config.finiteCache = cache;
    }
    return config;
}

void
RunManifest::writeJson(JsonWriter &writer) const
{
    writer.beginObject();
    writer.key("kind").value("manifest");
    writer.key("schema_version").value(schemaVersion);
    writer.key("started_at").value(startedAt);
    writer.key("finished_at").value(finishedAt);
    writer.key("host").value(host);
    writer.key("jobs").value(jobs);

    writer.key("config").beginObject();
    writer.key("block_bytes").value(blockBytes);
    writer.key("sharing").value(sharing);
    writer.key("warmup_refs").value(warmupRefs);
    writer.key("invariant_check_period").value(invariantCheckPeriod);
    if (hasFiniteCache) {
        writer.key("finite_cache").beginObject();
        writer.key("capacity_bytes").value(finiteCapacityBytes);
        writer.key("ways").value(finiteWays);
        writer.endObject();
    } else {
        writer.key("finite_cache").null();
    }
    writer.endObject();

    writer.key("schemes").beginArray();
    for (const std::string &scheme : schemes)
        writer.value(scheme);
    writer.endArray();

    writer.key("traces").beginArray();
    for (const TraceProvenance &trace : traces) {
        writer.beginObject();
        writer.key("name").value(trace.name);
        if (trace.path.empty())
            writer.key("path").null();
        else
            writer.key("path").value(trace.path);
        writer.key("source").value(trace.source);
        writer.key("records").value(trace.records);
        writer.key("caches").value(trace.caches);
        if (trace.hasChecksum)
            writer.key("fnv64").value(checksumHex(trace.checksum));
        else
            writer.key("fnv64").null();
        writer.endObject();
    }
    writer.endArray();

    writer.key("env").beginObject();
    for (const auto &[name, value] : env)
        writer.key(name).value(value);
    writer.endObject();
    writer.endObject();
}

RunManifest
RunManifest::fromJson(const JsonValue &json)
{
    fatalIf(!json.isObject(), "manifest is not a JSON object");
    const std::uint64_t version =
        json.at("schema_version").asU64();
    fatalIf(version > schemaVersion, "results schema version ",
            version, " is newer than this binary understands (",
            schemaVersion, ")");

    RunManifest manifest;
    manifest.startedAt = json.at("started_at").asString();
    manifest.finishedAt = json.at("finished_at").asString();
    manifest.host = json.at("host").asString();
    manifest.jobs = static_cast<unsigned>(json.at("jobs").asU64());

    const JsonValue &config = json.at("config");
    manifest.blockBytes =
        static_cast<unsigned>(config.at("block_bytes").asU64());
    manifest.sharing = config.at("sharing").asString();
    sharingFromString(manifest.sharing); // validate early
    manifest.warmupRefs = config.at("warmup_refs").asU64();
    manifest.invariantCheckPeriod =
        config.at("invariant_check_period").asU64();
    const JsonValue &finite = config.at("finite_cache");
    if (!finite.isNull()) {
        manifest.hasFiniteCache = true;
        manifest.finiteCapacityBytes =
            finite.at("capacity_bytes").asU64();
        manifest.finiteWays =
            static_cast<unsigned>(finite.at("ways").asU64());
    }

    for (const JsonValue &scheme : json.at("schemes").elements())
        manifest.schemes.push_back(scheme.asString());

    for (const JsonValue &entry : json.at("traces").elements()) {
        TraceProvenance trace;
        trace.name = entry.at("name").asString();
        const JsonValue &path = entry.at("path");
        if (!path.isNull())
            trace.path = path.asString();
        trace.source = entry.at("source").asString();
        trace.records = entry.at("records").asU64();
        trace.caches =
            static_cast<unsigned>(entry.at("caches").asU64());
        const JsonValue &fnv = entry.at("fnv64");
        if (!fnv.isNull()) {
            trace.checksum = parseChecksumHex(fnv.asString());
            trace.hasChecksum = true;
        }
        manifest.traces.push_back(std::move(trace));
    }

    for (const auto &[name, value] : json.at("env").members())
        manifest.env.emplace_back(name, value.asString());
    return manifest;
}

} // namespace dirsim
