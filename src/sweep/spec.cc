#include "sweep/spec.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "cache/finite_cache.hh"
#include "common/bitops.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "protocols/registry.hh"

namespace dirsim
{

namespace
{

/** Parser that either throws on the first problem (diags == nullptr)
 *  or records every problem and keeps going with defaults. */
class SpecReader
{
  public:
    explicit SpecReader(std::vector<SweepDiagnostic> *diags_arg)
        : diags(diags_arg)
    {}

    template <typename... Args>
    void
    problem(const std::string &where, Args &&...args)
    {
        std::ostringstream message;
        (message << ... << std::forward<Args>(args));
        if (diags == nullptr)
            fatal("sweep spec: ", where, ": ", message.str());
        diags->push_back({where, message.str()});
    }

    bool
    collecting() const
    {
        return diags != nullptr;
    }

  private:
    std::vector<SweepDiagnostic> *diags;
};

std::uint64_t
readU64(SpecReader &reader, const JsonValue &value,
        const std::string &where, std::uint64_t fallback)
{
    try {
        return value.asU64();
    } catch (const SimulationError &error) {
        reader.problem(where, error.what());
        return fallback;
    }
}

unsigned
readUnsigned(SpecReader &reader, const JsonValue &value,
             const std::string &where, unsigned fallback)
{
    const std::uint64_t wide = readU64(reader, value, where, fallback);
    if (wide > std::numeric_limits<unsigned>::max()) {
        reader.problem(where, wide, " does not fit in an unsigned");
        return fallback;
    }
    return static_cast<unsigned>(wide);
}

const std::set<std::string> &
knownProfiles()
{
    static const std::set<std::string> names{"pops", "thor", "pero",
                                             "scale"};
    return names;
}

SweepTraceEntry
readTraceEntry(SpecReader &reader, const JsonValue &json,
               const std::string &where)
{
    SweepTraceEntry entry;
    if (!json.isObject()) {
        reader.problem(where, "must be an object with either a "
                              "\"profile\" or a \"file\" member");
        return entry;
    }
    bool has_profile = false;
    bool has_file = false;
    // Cache counts were given, rejected ones included: a rejected
    // count is its own problem, not a missing axis.
    bool names_caches = false;
    for (const auto &[key, value] : json.members()) {
        const std::string at = where + "." + key;
        if (key == "profile") {
            has_profile = true;
            if (value.kind() != JsonValue::Kind::String) {
                reader.problem(at, "must be a string");
                continue;
            }
            entry.profile = value.asString();
            if (knownProfiles().count(entry.profile) == 0) {
                reader.problem(at, "unknown profile '", entry.profile,
                               "' (valid: pops, thor, pero, scale)");
            }
        } else if (key == "file") {
            has_file = true;
            if (value.kind() != JsonValue::Kind::String) {
                reader.problem(at, "must be a string");
                continue;
            }
            entry.file = value.asString();
            if (entry.file.empty())
                reader.problem(at, "must not be empty");
        } else if (key == "refs") {
            entry.refs = readU64(reader, value, at, entry.refs);
            if (entry.refs == 0)
                reader.problem(at, "a trace cannot be empty");
        } else if (key == "seed") {
            entry.seed = readU64(reader, value, at, entry.seed);
        } else if (key == "caches") {
            names_caches = !value.isArray() || value.size() > 0;
            if (!value.isArray()) {
                reader.problem(at, "must be an array of cache counts");
                continue;
            }
            for (std::size_t i = 0; i < value.size(); ++i) {
                const std::string slot =
                    at + "[" + std::to_string(i) + "]";
                const unsigned count =
                    readUnsigned(reader, value.at(i), slot, 1);
                if (count == 0) {
                    reader.problem(slot,
                                   "a machine needs at least one cache");
                    continue;
                }
                // The trace container stores cpu ids as u16
                // (trace/format.hh), so larger machines cannot even
                // be represented.
                if (count > 65535) {
                    reader.problem(slot, count,
                                   " caches overflow the trace "
                                   "format's u16 cpu ids (max 65535)");
                    continue;
                }
                entry.caches.push_back(count);
            }
        } else {
            reader.problem(at, "unknown member");
        }
    }
    if (has_profile == has_file) {
        reader.problem(where, "needs exactly one of \"profile\" or "
                              "\"file\"");
    }
    entry.kind = has_file && !has_profile ? SweepTraceEntry::Kind::File
                                          : SweepTraceEntry::Kind::Profile;
    if (entry.kind == SweepTraceEntry::Kind::Profile
        && entry.profile == "scale" && !names_caches) {
        reader.problem(where, "the \"scale\" profile needs a "
                              "\"caches\" axis (its machine size is "
                              "the parameter)");
    }
    if (entry.kind == SweepTraceEntry::Kind::File
        && !entry.caches.empty()) {
        reader.problem(where, "\"caches\" only applies to generated "
                              "traces, not files");
    }
    return entry;
}

/** The block_bytes axis: every entry a size the engine accepts
 *  (checkBlockSize(): a power of two of at least one bus word). */
std::vector<unsigned>
readBlockSizes(SpecReader &reader, const JsonValue &value)
{
    std::vector<unsigned> axis;
    if (!value.isArray()) {
        reader.problem("block_bytes", "must be an array");
        return axis;
    }
    for (std::size_t i = 0; i < value.size(); ++i) {
        const std::string slot = "block_bytes[" + std::to_string(i) + "]";
        const unsigned bytes =
            readUnsigned(reader, value.at(i), slot, defaultBlockBytes);
        try {
            checkBlockSize(bytes);
            axis.push_back(bytes);
        } catch (const UsageError &error) {
            reader.problem(slot, error.what());
        }
    }
    if (value.size() == 0)
        reader.problem("block_bytes", "axis is empty");
    return axis;
}

SweepGeometry
readGeometry(SpecReader &reader, const JsonValue &json,
             const std::string &where)
{
    SweepGeometry geometry;
    if (json.kind() == JsonValue::Kind::String) {
        if (json.asString() != "infinite") {
            reader.problem(where, "unknown geometry '", json.asString(),
                           "' (use \"infinite\" or an object with "
                           "capacity_bytes and ways)");
        }
        return geometry;
    }
    if (!json.isObject()) {
        reader.problem(where, "must be \"infinite\" or an object with "
                              "capacity_bytes and ways");
        return geometry;
    }
    geometry.infinite = false;
    bool has_capacity = false;
    bool has_ways = false;
    for (const auto &[key, value] : json.members()) {
        const std::string at = where + "." + key;
        if (key == "capacity_bytes") {
            has_capacity = true;
            geometry.capacityBytes = readU64(reader, value, at, 0);
        } else if (key == "ways") {
            has_ways = true;
            geometry.ways = readUnsigned(reader, value, at, 0);
        } else {
            reader.problem(at, "unknown member");
        }
    }
    if (!has_capacity)
        reader.problem(where, "finite geometry needs capacity_bytes");
    if (!has_ways)
        reader.problem(where, "finite geometry needs ways");
    return geometry;
}

SweepSpec
readSpec(SpecReader &reader, const JsonValue &json)
{
    SweepSpec spec;
    if (!json.isObject()) {
        reader.problem("(root)", "a sweep spec is a JSON object");
        return spec;
    }
    bool has_name = false;
    bool has_schemes = false;
    bool has_traces = false;
    for (const auto &[key, value] : json.members()) {
        if (key == "name") {
            has_name = true;
            if (value.kind() != JsonValue::Kind::String
                || value.asString().empty()) {
                reader.problem("name", "must be a non-empty string");
                continue;
            }
            spec.name = value.asString();
        } else if (key == "schemes") {
            has_schemes = true;
            if (!value.isArray()) {
                reader.problem("schemes", "must be an array of scheme "
                                          "names");
                continue;
            }
            for (std::size_t i = 0; i < value.size(); ++i) {
                const std::string at =
                    "schemes[" + std::to_string(i) + "]";
                if (value.at(i).kind() != JsonValue::Kind::String) {
                    reader.problem(at, "must be a string");
                    continue;
                }
                const std::string &name = value.at(i).asString();
                try {
                    // Canonicalize, so "dir0b" and "Dir0B" are one
                    // axis value (and one cache key).
                    spec.schemes.push_back(parseScheme(name).name());
                } catch (const UsageError &error) {
                    reader.problem(at, error.what());
                }
            }
            if (spec.schemes.empty())
                reader.problem("schemes", "axis is empty");
        } else if (key == "traces") {
            has_traces = true;
            if (!value.isArray()) {
                reader.problem("traces", "must be an array of trace "
                                         "entries");
                continue;
            }
            for (std::size_t i = 0; i < value.size(); ++i) {
                spec.traces.push_back(readTraceEntry(
                    reader, value.at(i),
                    "traces[" + std::to_string(i) + "]"));
            }
            if (spec.traces.empty())
                reader.problem("traces", "axis is empty");
        } else if (key == "block_bytes") {
            spec.blockBytes = readBlockSizes(reader, value);
        } else if (key == "geometries") {
            if (!value.isArray()) {
                reader.problem("geometries", "must be an array");
                continue;
            }
            spec.geometries.clear();
            for (std::size_t i = 0; i < value.size(); ++i) {
                spec.geometries.push_back(readGeometry(
                    reader, value.at(i),
                    "geometries[" + std::to_string(i) + "]"));
            }
            if (spec.geometries.empty())
                reader.problem("geometries", "axis is empty");
        } else if (key == "warmup_refs") {
            spec.warmupRefs =
                readU64(reader, value, "warmup_refs", 0);
        } else if (key == "sharing") {
            if (value.kind() != JsonValue::Kind::String) {
                reader.problem("sharing", "must be \"process\" or "
                                          "\"processor\"");
                continue;
            }
            const std::string &mode = value.asString();
            if (mode == "process") {
                spec.sharing = SharingModel::ByProcess;
            } else if (mode == "processor") {
                spec.sharing = SharingModel::ByProcessor;
            } else {
                reader.problem("sharing", "unknown mode '", mode,
                               "' (use \"process\" or \"processor\")");
            }
        } else {
            reader.problem(key, "unknown member");
        }
    }
    if (!has_name)
        reader.problem("name", "required member is missing");
    if (!has_schemes)
        reader.problem("schemes", "required member is missing");
    if (!has_traces)
        reader.problem("traces", "required member is missing");
    return spec;
}

/** One value of the traces axis: an entry at one cache count. */
struct TraceInstance
{
    const SweepTraceEntry *entry;
    unsigned caches;

    bool
    operator==(const TraceInstance &other) const
    {
        const SweepTraceEntry &a = *entry;
        const SweepTraceEntry &b = *other.entry;
        if (a.kind != b.kind)
            return false;
        if (a.kind == SweepTraceEntry::Kind::File)
            return a.file == b.file;
        return a.profile == b.profile && caches == other.caches
            && a.refs == b.refs && a.seed == b.seed;
    }

    /** The value as a diagnostic names it. */
    std::string
    label() const
    {
        if (entry->kind == SweepTraceEntry::Kind::File)
            return "file:" + entry->file;
        std::ostringstream id;
        id << "gen:" << entry->profile << ":" << caches << ":"
           << entry->refs << ":" << entry->seed;
        return id.str();
    }
};

/** Report each value of @p axis that repeats an earlier one. */
template <typename T, typename Label>
void
reportRepeats(SpecReader &reader, const std::string &axis,
              const std::vector<T> &values, Label label)
{
    // Axes hold a handful of values and every sweep parses its spec
    // (perfbench times it as setup_s), so compare pairwise instead
    // of building a set of keys.
    for (std::size_t i = 0; i < values.size(); ++i) {
        const auto earlier = values.begin() + i;
        if (std::find(values.begin(), earlier, values[i]) != earlier) {
            reader.problem(axis + "[" + std::to_string(i) + "]",
                           "duplicate axis value '", label(values[i]),
                           "' expands into duplicate cells");
        }
    }
}

/** Report axis values that repeat — each repeat multiplies the whole
 *  cross product into duplicate cells. */
void
lintDuplicates(SpecReader &reader, const SweepSpec &spec)
{
    const auto itself = [](const auto &value) { return value; };
    reportRepeats(reader, "schemes", spec.schemes, itself);
    std::vector<TraceInstance> traces;
    for (const SweepTraceEntry &entry : spec.traces) {
        if (entry.caches.empty())
            traces.push_back({&entry, 0});
        for (const unsigned caches : entry.caches)
            traces.push_back({&entry, caches});
    }
    reportRepeats(reader, "traces", traces,
                  [](const TraceInstance &trace) { return trace.label(); });
    reportRepeats(reader, "block_bytes", spec.blockBytes, itself);
    reportRepeats(reader, "geometries", spec.geometries,
                  [](const SweepGeometry &geometry) {
                      return geometry.label();
                  });
}

/** Check every finite geometry against every block size. */
void
lintGeometries(SpecReader &reader, const SweepSpec &spec)
{
    for (std::size_t g = 0; g < spec.geometries.size(); ++g) {
        const SweepGeometry &geometry = spec.geometries[g];
        if (geometry.infinite)
            continue;
        for (const unsigned block : spec.blockBytes) {
            FiniteCacheConfig config;
            config.capacityBytes = geometry.capacityBytes;
            config.ways = geometry.ways;
            config.blockBytes = block;
            try {
                config.check();
            } catch (const UsageError &error) {
                reader.problem(
                    "geometries[" + std::to_string(g) + "]",
                    "impossible with ", block, "-byte blocks: ",
                    error.what());
            }
        }
    }
}

} // namespace

std::string
SweepGeometry::label() const
{
    if (infinite)
        return "inf";
    return std::to_string(capacityBytes) + "B" + std::to_string(ways)
        + "w";
}

SweepSpec
parseSweepSpec(const JsonValue &json)
{
    // The linter's checks in the linter's order, stopping at the
    // first problem.
    SpecReader reader(nullptr);
    SweepSpec spec = readSpec(reader, json);
    lintDuplicates(reader, spec);
    lintGeometries(reader, spec);
    return spec;
}

SweepSpec
parseSweepSpec(std::string_view text)
{
    return parseSweepSpec(JsonValue::parse(text));
}

SweepSpec
loadSweepSpec(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open sweep spec '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    fatalIf(in.bad(), "I/O error reading sweep spec '", path, "'");
    try {
        return parseSweepSpec(text.str());
    } catch (const UsageError &error) {
        fatal("'", path, "': ", error.what());
    }
}

std::vector<SweepDiagnostic>
lintSweepSpec(std::string_view text)
{
    std::vector<SweepDiagnostic> diags;
    SpecReader reader(&diags);
    JsonValue json;
    try {
        json = JsonValue::parse(text);
    } catch (const SimulationError &error) {
        diags.push_back({"(json)", error.what()});
        return diags;
    }
    const SweepSpec spec = readSpec(reader, json);
    if (!diags.empty())
        return diags; // structure is broken; semantics would mislead
    lintDuplicates(reader, spec);
    lintGeometries(reader, spec);
    return diags;
}

} // namespace dirsim
