#include "sweep/expand.hh"

#include <map>
#include <sstream>

#include "common/logging.hh"

namespace dirsim
{

namespace
{

/** Filename stem: "traces/pops.v2.bin" -> "pops.v2". */
std::string
fileStem(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
    const std::size_t dot = path.find_last_of('.');
    const std::size_t end =
        dot == std::string::npos || dot <= start ? path.size() : dot;
    return path.substr(start, end - start);
}

/** The trace instances of one spec entry, base-labelled. */
std::vector<SweepTraceInstance>
instancesOf(const SweepTraceEntry &entry)
{
    std::vector<SweepTraceInstance> instances;
    if (entry.kind == SweepTraceEntry::Kind::File) {
        SweepTraceInstance instance;
        instance.kind = SweepTraceEntry::Kind::File;
        instance.path = entry.file;
        instance.label = fileStem(entry.file);
        instances.push_back(std::move(instance));
        return instances;
    }
    const std::vector<unsigned> counts =
        entry.caches.empty() ? std::vector<unsigned>{0} : entry.caches;
    for (const unsigned caches : counts) {
        SweepTraceInstance instance;
        instance.kind = SweepTraceEntry::Kind::Profile;
        instance.profile = entry.profile;
        instance.caches = caches;
        instance.refs = entry.refs;
        // Distinct derived seeds per machine size (the scalingTrace
        // convention), so widening an axis never reuses a stream.
        instance.seed = caches == 0 ? entry.seed
                                    : entry.seed * 31 + caches;
        if (entry.profile == "scale") {
            instance.label = "scale" + std::to_string(caches);
        } else if (caches == 0) {
            instance.label = entry.profile;
        } else {
            instance.label =
                entry.profile + std::to_string(caches);
        }
        instances.push_back(std::move(instance));
    }
    return instances;
}

/** Make repeated base labels unique by appending the refs/seed that
 *  distinguish them (then an index as the last resort). */
void
disambiguateLabels(std::vector<SweepTraceInstance> &instances)
{
    std::map<std::string, unsigned> uses;
    for (const SweepTraceInstance &instance : instances)
        ++uses[instance.label];
    std::map<std::string, unsigned> seen;
    for (SweepTraceInstance &instance : instances) {
        if (uses[instance.label] <= 1)
            continue;
        const std::string base = instance.label;
        std::ostringstream label;
        label << base;
        if (instance.kind == SweepTraceEntry::Kind::Profile)
            label << "-r" << instance.refs << "-s" << instance.seed;
        else
            label << "-" << seen[base];
        instance.label = label.str();
        ++seen[base];
    }
}

} // namespace

TraceRecipe
SweepTraceInstance::recipe() const
{
    return {profile, caches, refs, seed};
}

SimConfig
SweepCell::config(const SweepSpec &spec) const
{
    SimConfig config;
    config.blockBytes = blockBytes;
    config.sharing = spec.sharing;
    config.warmupRefs = spec.warmupRefs;
    if (!geometry.infinite) {
        FiniteCacheConfig finite;
        finite.capacityBytes = geometry.capacityBytes;
        finite.ways = geometry.ways;
        finite.blockBytes = blockBytes;
        config.finiteCache = finite;
    }
    return config;
}

std::uint64_t
SweepPlan::targetCellRefs() const
{
    std::uint64_t refs = 0;
    for (const SweepCell &cell : cells) {
        const SweepTraceInstance &instance = traces[cell.traceIndex];
        if (instance.kind == SweepTraceEntry::Kind::Profile)
            refs += instance.refs;
    }
    return refs;
}

SweepPlan
expandSweep(const SweepSpec &spec)
{
    fatalIf(spec.schemes.empty(), "sweep '", spec.name,
            "' has no schemes");
    fatalIf(spec.traces.empty(), "sweep '", spec.name,
            "' has no traces");
    fatalIf(spec.blockBytes.empty(), "sweep '", spec.name,
            "' has no block sizes");
    fatalIf(spec.geometries.empty(), "sweep '", spec.name,
            "' has no cache geometries");

    SweepPlan plan;
    plan.spec = spec;
    plan.schemes = parseSchemes(spec.schemes);
    for (const SweepTraceEntry &entry : spec.traces) {
        for (SweepTraceInstance &instance : instancesOf(entry))
            plan.traces.push_back(std::move(instance));
    }
    disambiguateLabels(plan.traces);

    // Axis values join the cell label only when the axis can vary —
    // a single-point axis would just add noise to every name.
    const bool label_block = spec.blockBytes.size() > 1;
    const bool label_geometry = spec.geometries.size() > 1;

    plan.cells.reserve(plan.traces.size() * plan.schemes.size()
                       * spec.blockBytes.size()
                       * spec.geometries.size());
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        for (const SchemeSpec &scheme : plan.schemes) {
            for (const unsigned block : spec.blockBytes) {
                for (const SweepGeometry &geometry : spec.geometries) {
                    SweepCell cell;
                    cell.traceIndex = t;
                    cell.scheme = scheme;
                    cell.blockBytes = block;
                    cell.geometry = geometry;
                    std::ostringstream label;
                    label << plan.traces[t].label;
                    if (label_block)
                        label << "@b" << block;
                    if (label_geometry)
                        label << "@" << geometry.label();
                    cell.label = label.str();
                    plan.cells.push_back(std::move(cell));
                }
            }
        }
    }
    return plan;
}

std::vector<std::unique_ptr<Trace>>
materializeSweepTraces(const SweepPlan &plan)
{
    std::vector<std::unique_ptr<Trace>> traces;
    traces.reserve(plan.traces.size());
    for (const SweepTraceInstance &instance : plan.traces) {
        traces.push_back(instance.kind == SweepTraceEntry::Kind::File
                             ? nullptr
                             : std::make_unique<Trace>(
                                   instance.recipe().generate()));
    }
    return traces;
}

} // namespace dirsim
