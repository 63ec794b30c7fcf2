#include "sim/job.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "trace/format.hh"

namespace dirsim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

const char *
toString(SharingModel sharing)
{
    return sharing == SharingModel::ByProcess ? "process" : "processor";
}

/** The plan-wide identity of the input @p ref names. */
std::string
sourceKey(const TraceRef &ref)
{
    std::ostringstream key;
    switch (ref.kind) {
      case TraceRef::Kind::Memory:
        fatalIf(ref.memory == nullptr, "SimJob references a null Trace");
        key << "mem:" << static_cast<const void *>(ref.memory);
        break;
      case TraceRef::Kind::Decoded:
        fatalIf(ref.decoded == nullptr,
                "SimJob references a null DecodedTrace");
        key << "dec:" << static_cast<const void *>(ref.decoded);
        break;
      case TraceRef::Kind::File:
        fatalIf(ref.path.empty(),
                "SimJob references an empty trace path");
        key << "file:" << ref.path;
        break;
    }
    return key.str();
}

} // namespace

TraceRef
TraceRef::of(const Trace &trace)
{
    TraceRef ref;
    ref.kind = Kind::Memory;
    ref.memory = &trace;
    return ref;
}

TraceRef
TraceRef::of(const DecodedTrace &decoded)
{
    TraceRef ref;
    ref.kind = Kind::Decoded;
    ref.decoded = &decoded;
    return ref;
}

TraceRef
TraceRef::file(std::string path)
{
    TraceRef ref;
    ref.kind = Kind::File;
    ref.path = std::move(path);
    return ref;
}

std::uint64_t
traceChecksumFnv64(const DecodedTrace &decoded)
{
    traceformat::Fnv64 fnv;
    fnv.update(decoded.name.data(), decoded.name.size());
    const std::uint64_t shape[5] = {
        decoded.blockBytes,
        decoded.sharing == SharingModel::ByProcess ? 0u : 1u,
        decoded.cachesNeeded, decoded.cachesUsed, decoded.dataRefs};
    fnv.update(shape, sizeof(shape));
    fnv.update(decoded.ops.data(),
               decoded.ops.size() * sizeof(decoded.ops[0]));
    fnv.update(decoded.blocks.data(),
               decoded.blocks.size() * sizeof(decoded.blocks[0]));
    fnv.update(decoded.caches.data(),
               decoded.caches.size() * sizeof(decoded.caches[0]));
    fnv.update(decoded.denseToBlock.data(),
               decoded.denseToBlock.size()
                   * sizeof(decoded.denseToBlock[0]));
    return fnv.value();
}

std::uint64_t
fileChecksumFnv64(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open '", path, "' for checksumming");
    traceformat::Fnv64 fnv;
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
        fnv.update(buf, static_cast<std::size_t>(in.gcount()));
        if (in.eof())
            break;
    }
    fatalIf(in.bad(), "I/O error while checksumming '", path, "'");
    return fnv.value();
}

std::uint64_t
cellCacheKey(std::uint64_t trace_checksum, const SchemeSpec &scheme,
             const SimConfig &config)
{
    // Canonical text, then FNV-1a 64. Observation-only fields
    // (traceSink, invariantCheckPeriod) do not change the result and
    // are deliberately absent, so an instrumented run and a plain run
    // of the same cell share one entry.
    std::ostringstream key;
    key << "v" << engineSchemaVersion << "|trace:" << std::hex
        << trace_checksum << std::dec << "|scheme:" << scheme.name()
        << "|block:" << config.blockBytes
        << "|sharing:" << toString(config.sharing)
        << "|warmup:" << config.warmupRefs;
    if (config.finiteCache) {
        key << "|finite:" << config.finiteCache->capacityBytes << ":"
            << config.finiteCache->ways << ":"
            << config.finiteCache->blockBytes;
    }
    const std::string text = key.str();
    traceformat::Fnv64 fnv;
    fnv.update(text.data(), text.size());
    return fnv.value();
}

std::uint64_t
SimPlan::plannedRefs() const
{
    std::uint64_t refs = 0;
    for (const PlannedCell &cell : cells)
        refs += cell.records;
    return refs;
}

SimPlan
buildPlan(const std::vector<SimJob> &jobs, const JobOptions &options)
{
    SimPlan plan;
    plan.cache = options.cache;
    plan.cells.reserve(jobs.size());

    // Decode each distinct (source, geometry) once; the cells share
    // the immutable stream read-only.
    std::map<std::string, const DecodedTrace *> streams;
    std::map<std::string, std::uint64_t> checksums;

    for (const SimJob &job : jobs) {
        const TraceRef &ref = job.trace;
        const std::string source = sourceKey(ref);

        PlannedCell cell;
        cell.scheme = job.scheme;
        cell.config = job.config;
        if (ref.kind == TraceRef::Kind::Decoded) {
            cell.stream = ref.decoded;
        } else {
            const std::string stream_key = source + "|"
                + std::to_string(job.config.blockBytes) + "|"
                + toString(job.config.sharing);
            auto it = streams.find(stream_key);
            if (it == streams.end()) {
                auto stream = std::make_unique<DecodedTrace>(
                    ref.kind == TraceRef::Kind::Memory
                        ? decodeTrace(*ref.memory, job.config.blockBytes,
                                      job.config.sharing)
                        : decodeTraceFile(ref.path,
                                          job.config.blockBytes,
                                          job.config.sharing));
                it = streams.emplace(stream_key, stream.get()).first;
                plan.streams.push_back(std::move(stream));
            }
            cell.stream = it->second;
        }
        cell.traceName = cell.stream->name;
        cell.records = cell.stream->numRecords();

        // A raw SimConfig::traceSink cannot be replayed from the
        // cache; such cells run uncached.
        if (options.cache && job.config.traceSink == nullptr) {
            // One checksum per source: the cell key adds the block
            // size and sharing model itself.
            auto it = checksums.find(source);
            if (it == checksums.end()) {
                it = checksums
                         .emplace(source,
                                  traceChecksumFnv64(*cell.stream))
                         .first;
            }
            cell.cacheKey = cellCacheKey(it->second, job.scheme,
                                         job.config);
            cell.cacheable = true;
        }
        plan.cells.push_back(std::move(cell));
    }
    return plan;
}

CellOutcome
runPlannedCell(const SimPlan &plan, std::size_t index,
               ProtocolTraceSink *sink)
{
    panicIfNot(index < plan.cells.size(),
               "runPlannedCell index ", index, " outside a plan of ",
               plan.cells.size(), " cells");
    const PlannedCell &cell = plan.cells[index];
    CellOutcome out;
    out.records = cell.records;
    const auto start = Clock::now();

    // Traced cells skip the lookup (a replayed result cannot feed the
    // sink) but still store: the result is identical either way.
    if (cell.cacheable && plan.cache && sink == nullptr
        && plan.cache->lookup(cell.cacheKey, out.result)) {
        out.cacheHit = true;
        out.wallSeconds = secondsSince(start);
        return out;
    }

    SimConfig config = cell.config;
    if (sink != nullptr)
        config.traceSink = sink;
    out.result = simulateTrace(*cell.stream, cell.scheme, config);
    out.simulatedRefs = cell.records;
    out.wallSeconds = secondsSince(start);
    if (cell.cacheable && plan.cache)
        plan.cache->store(cell.cacheKey, out.result, out.wallSeconds);
    return out;
}

CellOutcome
runJob(const SimJob &job, const JobOptions &options)
{
    const SimPlan plan = buildPlan({job}, options);
    return runPlannedCell(plan, 0);
}

std::vector<CellOutcome>
runJobs(const std::vector<SimJob> &jobs, const JobOptions &options,
        unsigned workers)
{
    const SimPlan plan = buildPlan(jobs, options);
    std::vector<CellOutcome> outcomes(plan.cells.size());
    if (workers == 0) {
        const unsigned env = envUnsigned("DIRSIM_JOBS", 0);
        workers = env > 0 ? env : ThreadPool::hardwareThreads();
    }
    if (workers <= 1 || plan.cells.size() <= 1) {
        for (std::size_t i = 0; i < plan.cells.size(); ++i)
            outcomes[i] = runPlannedCell(plan, i);
        return outcomes;
    }
    ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(
        workers, plan.cells.size())));
    for (std::size_t i = 0; i < plan.cells.size(); ++i)
        pool.submit([&plan, &outcomes, i] {
            outcomes[i] = runPlannedCell(plan, i);
        });
    pool.wait();
    return outcomes;
}

} // namespace dirsim
