#include "sim/job.hh"

#include <algorithm>
#include <bit>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "trace/format.hh"

namespace dirsim
{

namespace
{

double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(PhaseTimer::nowNs() - start_ns) * 1e-9;
}

/** Opaque identity of the calling thread for timeline lanes. */
std::uint64_t
currentThreadTag()
{
    return static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
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
      case TraceRef::Kind::Generated:
        key << "gen:" << std::hex << ref.recipe.checksum();
        break;
    }
    return key.str();
}

/**
 * Decode @p stream, generating its source's trace first when needed.
 * The caller holds the source's latch, or is buildPlan().
 */
void
materialize(PlanStream &stream)
{
    PlanSource &source = *stream.source;
    const TraceRef &ref = source.ref;
    DecodedTrace decoded;
    switch (ref.kind) {
      case TraceRef::Kind::Memory:
        decoded = decodeTrace(*ref.memory, stream.blockBytes,
                              stream.sharing);
        break;
      case TraceRef::Kind::File:
        decoded = decodeTraceFile(ref.path, stream.blockBytes,
                                  stream.sharing);
        break;
      case TraceRef::Kind::Generated:
        if (!source.trace)
            source.trace = std::make_unique<Trace>(ref.recipe.generate());
        decoded = decodeTrace(*source.trace, stream.blockBytes,
                              stream.sharing);
        break;
      case TraceRef::Kind::Decoded:
        panic("a caller-decoded stream is never materialized");
    }
    stream.owned = std::make_unique<DecodedTrace>(std::move(decoded));
    stream.decoded = stream.owned.get();
    source.materialized = true;
    // The cells replay the decoded stream; once every stream has its
    // decode, the generated trace is dead weight.
    if (--source.pendingStreams == 0)
        source.trace.reset();
}

/** The stream a cell replays, materialized by the first cell that
 *  needs it while the others wait on the source's latch. */
const DecodedTrace &
acquire(PlanStream &stream)
{
    if (stream.ready)
        return *stream.decoded;
    std::lock_guard<std::mutex> lock(stream.source->latch);
    if (stream.decoded == nullptr)
        materialize(stream);
    return *stream.decoded;
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

TraceRef
TraceRef::generated(TraceRecipe recipe)
{
    TraceRef ref;
    ref.kind = Kind::Generated;
    ref.recipe = std::move(recipe);
    return ref;
}

namespace
{

/**
 * Hash one column of a decoded stream's canonical record-aligned
 * layout: a Row per record, zero for an instruction record and
 * @p column's entry for a data record, rebuilt one bitmap word (64
 * records) at a time.
 */
template <typename Row, typename Column>
void
hashColumn(traceformat::Fnv64 &fnv, const DecodedTrace &decoded,
           const Column &column)
{
    std::uint64_t data = 0;
    for (std::size_t w = 0; w < decoded.dataBits.size(); ++w) {
        const auto rows = static_cast<std::size_t>(std::min<std::uint64_t>(
            64, decoded.numRecords() - std::uint64_t{w} * 64));
        Row buf[64] = {};
        for (std::uint64_t bits = decoded.dataBits[w]; bits != 0;
             bits &= bits - 1)
            buf[std::countr_zero(bits)] = column[data++];
        fnv.update(buf, rows * sizeof(Row));
    }
}

} // namespace

std::uint64_t
traceChecksumFnv64(const DecodedTrace &decoded)
{
    traceformat::Fnv64 fnv;
    fnv.update(decoded.name.data(), decoded.name.size());
    const std::uint64_t shape[5] = {
        decoded.blockBytes,
        decoded.sharing == SharingModel::ByProcess ? 0u : 1u,
        decoded.cachesNeeded, decoded.cachesUsed, decoded.dataRefs()};
    fnv.update(shape, sizeof(shape));
    // Per record, in three passes: the op byte (decodedOpInstr for an
    // instruction), the u32 dense block and the u32 cache id (zero
    // for an instruction).
    static_assert(decodedOpInstr == 0);
    hashColumn<std::uint8_t>(fnv, decoded, decoded.ops);
    hashColumn<std::uint32_t>(fnv, decoded, decoded.blocks);
    hashColumn<CacheId>(fnv, decoded, decoded.caches);
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

std::size_t
SimPlan::materializedSources() const
{
    std::size_t count = 0;
    for (const auto &source : sources) {
        std::lock_guard<std::mutex> lock(source->latch);
        count += source->materialized ? 1 : 0;
    }
    return count;
}

SimPlan
buildPlan(const std::vector<SimJob> &jobs, const JobOptions &options)
{
    SimPlan plan;
    plan.cache = options.cache;
    plan.cells.reserve(jobs.size());

    std::map<std::string, PlanSource *> sources;
    // One stream per distinct (source, geometry); the cells share the
    // immutable stream read-only.
    std::map<std::string, PlanStream *> streams;
    // One content checksum per source: the cell key adds the block
    // size and sharing model itself.
    std::map<const PlanSource *, std::uint64_t> checksums;

    for (const SimJob &job : jobs) {
        const TraceRef &ref = job.trace;
        const std::string source_key = sourceKey(ref);
        const auto [source_it, new_source] =
            sources.try_emplace(source_key);
        if (new_source) {
            plan.sources.push_back(std::make_unique<PlanSource>());
            plan.sources.back()->ref = ref;
            source_it->second = plan.sources.back().get();
        }
        PlanSource &source = *source_it->second;

        const auto [stream_it, new_stream] = streams.try_emplace(
            source_key + "|" + std::to_string(job.config.blockBytes)
            + "|" + toString(job.config.sharing));
        if (new_stream) {
            plan.streams.push_back(std::make_unique<PlanStream>());
            PlanStream &stream = *plan.streams.back();
            stream.source = &source;
            stream.blockBytes = job.config.blockBytes;
            stream.sharing = job.config.sharing;
            if (ref.kind == TraceRef::Kind::Decoded) {
                stream.decoded = ref.decoded;
                stream.ready = true;
            } else {
                ++source.pendingStreams;
            }
            stream_it->second = &stream;
        }
        PlanStream &stream = *stream_it->second;

        PlannedCell cell;
        cell.scheme = job.scheme;
        cell.config = job.config;
        cell.stream = &stream;
        // A raw SimConfig::traceSink cannot be replayed from the
        // cache; such cells run uncached.
        cell.cacheable =
            options.cache && job.config.traceSink == nullptr;

        // Decode now only what planning needs: a file's record count,
        // and the arrays a content key hashes.
        const bool content_keyed = cell.cacheable
            && ref.kind != TraceRef::Kind::Generated;
        const bool unkeyed =
            content_keyed && checksums.count(&source) == 0;
        if (unkeyed
            || (!stream.ready && ref.kind == TraceRef::Kind::File)) {
            const std::uint64_t read_start = PhaseTimer::nowNs();
            if (!stream.ready) {
                materialize(stream);
                stream.ready = true;
            }
            if (unkeyed)
                checksums[&source] = traceChecksumFnv64(*stream.decoded);
            plan.decodeNs += PhaseTimer::nowNs() - read_start;
        }
        if (cell.cacheable) {
            cell.cacheKey = cellCacheKey(content_keyed
                                             ? checksums.at(&source)
                                             : ref.recipe.checksum(),
                                         job.scheme, job.config);
        }

        if (stream.ready) {
            cell.traceName = stream.decoded->name;
            cell.records = stream.decoded->numRecords();
        } else if (ref.kind == TraceRef::Kind::Memory) {
            cell.traceName = ref.memory->name();
            cell.records = ref.memory->size();
        } else {
            cell.records = ref.recipe.refs;
        }
        plan.cells.push_back(std::move(cell));
    }
    return plan;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    const unsigned env = envUnsigned("DIRSIM_JOBS", 0);
    return env > 0 ? env : ThreadPool::hardwareThreads();
}

namespace
{

/**
 * Execute one cell of a plan: cache lookup, simulation, cache store,
 * with the whole CellTiming filled in. Safe to call for different
 * indices from concurrent workers.
 */
CellOutcome
runPlannedCell(const SimPlan &plan, std::size_t index,
               const CellSinkFactory &make_sink)
{
    const PlannedCell &cell = plan.cells[index];
    CellOutcome out;
    CellTiming &timing = out.timing;
    timing.scheme = cell.scheme.name();
    timing.traceName = cell.traceName;
    timing.startNs = PhaseTimer::nowNs();
    timing.threadTag = currentThreadTag();
    std::unique_ptr<ProtocolTraceSink> sink;
    if (make_sink)
        sink = make_sink(timing.scheme, timing.traceName);

    // Traced cells skip the lookup (a replayed result cannot feed the
    // sink) but still store: the result is identical either way. A
    // hit never touches the trace, so its record count comes from the
    // result.
    if (cell.cacheable && plan.cache && sink == nullptr
        && plan.cache->lookup(cell.cacheKey, out.result)) {
        timing.cacheHit = true;
        timing.refs = out.result.totalRefs + cell.config.warmupRefs;
        timing.wallSeconds = secondsSince(timing.startNs);
        return out;
    }

    const std::uint64_t read_start = PhaseTimer::nowNs();
    const DecodedTrace &stream = acquire(*cell.stream);
    const std::uint64_t read_ns = PhaseTimer::nowNs() - read_start;

    SimConfig config = cell.config;
    if (sink != nullptr)
        config.traceSink = sink.get();
    out.result = simulateTrace(stream, cell.scheme, config);
    if (!cell.stream->ready)
        out.result.phases.add(Phase::Read, read_ns);
    timing.refs = stream.numRecords();
    timing.simulatedRefs = timing.refs;
    if (cell.cacheable && plan.cache)
        plan.cache->store(cell.cacheKey, out.result,
                          secondsSince(timing.startNs));
    timing.wallSeconds = secondsSince(timing.startNs);
    return out;
}

} // namespace

std::vector<std::size_t>
dispatchOrder(const SimPlan &plan, unsigned jobs)
{
    std::vector<std::size_t> order(plan.cells.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (jobs <= 1)
        return order;
    // Each source's cells, sources in order of first appearance.
    std::vector<std::vector<std::size_t>> by_source;
    std::map<const PlanSource *, std::size_t> slot_of;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const auto [it, fresh] = slot_of.try_emplace(
            plan.cells[i].stream->source, by_source.size());
        if (fresh)
            by_source.emplace_back();
        by_source[it->second].push_back(i);
    }
    order.clear();
    for (std::size_t round = 0; order.size() < plan.cells.size();
         ++round) {
        for (const std::vector<std::size_t> &cells : by_source) {
            if (round < cells.size())
                order.push_back(cells[round]);
        }
    }
    return order;
}

PlanRun
runPlan(const SimPlan &plan, const ExecOptions &options)
{
    PlanRun run;
    run.jobs = resolveJobs(options.jobs);
    run.outcomes.resize(plan.cells.size());
    std::uint64_t planned_refs = plan.plannedRefs();

    // Guards the tallies and the outcomes, and serializes the
    // progress callback.
    std::mutex mutex;
    std::size_t completed = 0;
    std::size_t hits = 0;
    std::uint64_t completed_refs = 0;
    bool stopped = false;

    const auto dispatch = [&](std::size_t index) {
        {
            // The stop gate: budget and cancellation stop dispatching;
            // cells in flight still finish and are recorded, which is
            // what makes a cut sweep resumable.
            std::lock_guard<std::mutex> lock(mutex);
            stopped = stopped
                || (options.cancel != nullptr
                    && options.cancel->load(std::memory_order_relaxed))
                || (options.maxSimulatedCells != 0
                    && completed - hits >= options.maxSimulatedCells);
            if (stopped)
                return;
        }
        CellOutcome outcome =
            runPlannedCell(plan, index, options.makeCellTraceSink);
        std::lock_guard<std::mutex> lock(mutex);
        ++completed;
        hits += outcome.timing.cacheHit ? 1 : 0;
        completed_refs += outcome.timing.refs;
        // A finished cell's records are exact: replace the estimate.
        planned_refs += outcome.timing.refs;
        planned_refs -= plan.cells[index].records;
        run.outcomes[index] = std::move(outcome);
        if (options.onProgress) {
            options.onProgress({completed, plan.cells.size(),
                                run.outcomes[index]->timing,
                                secondsSince(run.startNs),
                                completed_refs, planned_refs, hits});
        }
    };

    const std::vector<std::size_t> order = dispatchOrder(plan, run.jobs);
    run.startNs = PhaseTimer::nowNs();
    if (run.jobs == 1) {
        for (const std::size_t i : order)
            dispatch(i);
    } else {
        ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(
            run.jobs, plan.cells.size())));
        for (const std::size_t i : order)
            pool.submit([&dispatch, i] { dispatch(i); });
        pool.wait();
    }
    run.wallSeconds = secondsSince(run.startNs);
    return run;
}

CellOutcome
runJob(const SimJob &job, const JobOptions &options)
{
    const SimPlan plan = buildPlan({job}, options);
    ExecOptions sequential;
    sequential.jobs = 1;
    CellOutcome outcome = std::move(*runPlan(plan, sequential).outcomes[0]);
    outcome.result.phases.add(Phase::Read, plan.decodeNs);
    return outcome;
}

} // namespace dirsim
