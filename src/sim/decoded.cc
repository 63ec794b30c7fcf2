#include "sim/decoded.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/dense_id_map.hh"
#include "common/logging.hh"
#include "directory/sharer_set.hh"
#include "protocols/registry.hh"
#include "trace/reader.hh"

namespace dirsim
{

namespace
{

/** Records a u32 coherence index can address. */
constexpr std::uint64_t indexableRecords = std::uint64_t{1} << 32;

/**
 * Add to @p events the records before @p boundary that the elided
 * walk did not visit: @p fetches instruction fetches, and as private
 * re-reads the rest but the @p visited coherence references.
 */
void
addSkipped(EventCounts &events, std::uint64_t boundary,
           std::uint64_t fetches, std::uint64_t visited)
{
    const std::uint64_t rereads = boundary - fetches - visited;
    events.add(EventType::Instr, fetches);
    events.add(EventType::Read, rereads);
    events.add(EventType::RdHit, rereads);
}

/**
 * The decode pass: one per-record kernel, add(), fed by the in-memory
 * walk and by TraceSource::next() alike.
 */
class Decoder
{
  public:
    Decoder(unsigned block_bytes, SharingModel sharing_arg,
            std::uint64_t expected_records)
        : blockShift(floorLog2(block_bytes)), sharing(sharing_arg)
    {
        out.blockBytes = block_bytes;
        out.sharing = sharing;
        out.ops.reserve(expected_records);
        out.blocks.reserve(expected_records);
        out.caches.reserve(expected_records);
        // Coherence references are 14–19% of a paper trace's records,
        // so the index grows in place and finish()'s shrink is its one
        // copy. Growing by doubling instead frees a chunk per step,
        // and each freed mmap'd chunk raises glibc's mmap threshold,
        // moving later decodes onto the heap: perfbench's
        // finite_sweep peaked 7.8% above the parent that way, 3.4%
        // with this reserve.
        out.coherenceRefs.reserve(expected_records / 4);
    }

    void
    add(const TraceRecord &record)
    {
        // Sizing state: distinct pids over *all* records / the
        // maximum CPU index, so an instruction-only process still
        // gets a cache. The mapping state: dense cache ids handed out
        // in order of first appearance over *data* records only. A
        // run of records from one pid or cpu probes neither map
        // again: the key changes on about one record in ten.
        const std::uint64_t key = sharing == SharingModel::ByProcess
            ? static_cast<std::uint64_t>(record.pid)
            : static_cast<std::uint64_t>(record.cpu);
        if (key != currentKey) {
            currentKey = key;
            currentCache = invalidCacheId;
            if (sharing == SharingModel::ByProcess)
                sizingPids.idFor(key);
            else if (record.cpu > maxCpu)
                maxCpu = record.cpu;
        }

        const std::uint64_t index = out.ops.size();
        if (record.isInstr()) {
            // Zero-filled so the arrays stay index-aligned; the op
            // kind alone routes the record.
            out.ops.push_back(decodedOpInstr);
            out.blocks.push_back(0);
            out.caches.push_back(0);
            return;
        }

        if (currentCache == invalidCacheId)
            currentCache = cacheIds.idFor(key).first;
        const BlockNum block = record.addr >> blockShift;
        const auto [dense_block, first_ref] = blockIds.idFor(block);
        std::uint8_t op = record.isRead() ? decodedOpRead
                                          : decodedOpWrite;
        if (first_ref) {
            op |= decodedOpFirstRef;
            out.denseToBlock.push_back(block);
            lastReferencer.push_back(currentCache);
            out.coherenceRefs.push_back(
                static_cast<std::uint32_t>(index));
        } else if (op == decodedOpWrite
                   || lastReferencer[dense_block] != currentCache) {
            lastReferencer[dense_block] = currentCache;
            out.coherenceRefs.push_back(
                static_cast<std::uint32_t>(index));
        }
        out.ops.push_back(op);
        out.blocks.push_back(dense_block);
        out.caches.push_back(currentCache);
        ++out.dataRefs;
    }

    /** The decoded stream, named @p name; @p header_cpus sizes a
     *  ByProcessor domain that no record does. */
    DecodedTrace
    finish(const std::string &name, unsigned header_cpus)
    {
        out.name = name;
        out.cachesUsed = static_cast<unsigned>(cacheIds.size());
        if (sharing == SharingModel::ByProcess) {
            out.cachesNeeded =
                static_cast<unsigned>(sizingPids.size());
        } else {
            const unsigned observed =
                out.numRecords() > 0 ? maxCpu + 1u : 0u;
            out.cachesNeeded = observed > 0 ? observed : header_cpus;
        }
        fatalIf(out.cachesNeeded > maxCacheDomain, "trace '", name,
                "' needs ", out.cachesNeeded,
                " caches; the engine holds at most ", maxCacheDomain);
        if (out.numRecords() > indexableRecords)
            out.coherenceRefs = {};
        out.coherenceRefs.shrink_to_fit();
        return std::move(out);
    }

  private:
    DecodedTrace out;
    unsigned blockShift;
    SharingModel sharing;
    DenseIdMap sizingPids;
    unsigned maxCpu = 0;
    DenseIdMap cacheIds;
    DenseIdMap blockIds;
    /** Per dense block, the cache that last referenced it. */
    std::vector<CacheId> lastReferencer;
    /** The pid or cpu of the previous record (none yet: no key is
     *  wider than 32 bits) and its cache id, or invalidCacheId until
     *  its first data record. */
    std::uint64_t currentKey = ~std::uint64_t{0};
    CacheId currentCache = invalidCacheId;
};

} // namespace

std::uint64_t
DecodedTrace::memoryBytes() const
{
    return ops.size() * sizeof(std::uint8_t)
        + blocks.size() * sizeof(std::uint32_t)
        + caches.size() * sizeof(CacheId)
        + denseToBlock.size() * sizeof(BlockNum)
        + coherenceRefs.size() * sizeof(std::uint32_t);
}

DecodedTrace
decodeTrace(TraceSource &source, unsigned block_bytes,
            SharingModel sharing)
{
    checkBlockSize(block_bytes);
    Decoder decoder(block_bytes, sharing, source.sizeHint().value_or(0));
    TraceRecord record;
    while (source.next(record))
        decoder.add(record);
    return decoder.finish(source.name(), source.numCpus());
}

DecodedTrace
decodeTrace(const Trace &trace, unsigned block_bytes,
            SharingModel sharing)
{
    checkBlockSize(block_bytes);
    Decoder decoder(block_bytes, sharing, trace.size());
    for (const TraceRecord &record : trace)
        decoder.add(record);
    return decoder.finish(trace.name(), trace.numCpus());
}

DecodedTrace
decodeTraceFile(const std::string &path, unsigned block_bytes,
                SharingModel sharing)
{
    const auto source = openTraceSource(path);
    return decodeTrace(*source, block_bytes, sharing);
}

SimResult
simulateTrace(const DecodedTrace &decoded,
              CoherenceProtocol &protocol, const SimConfig &config)
{
    checkBlockSize(config.blockBytes);
    fatalIf(config.blockBytes != decoded.blockBytes,
            "trace was decoded with ", decoded.blockBytes,
            "-byte blocks but the simulation uses ", config.blockBytes,
            "-byte blocks; decode it again");
    fatalIf(config.sharing != decoded.sharing,
            "trace was decoded under a different sharing model than "
            "the simulation requests; decode it again");
    fatalIf(config.finiteCache && !protocol.finiteCaches(),
            "SimConfig::finiteCache is set but the supplied protocol "
            "was built with infinite caches; build it with a "
            "FiniteCache factory or use a scheme-building "
            "simulateTrace overload");
    fatalIf(decoded.cachesUsed > protocol.numCaches(),
            "trace needs more than ", protocol.numCaches(),
            " caches; build the protocol with a larger domain");
    fatalIf(protocol.blockSpace() != decoded.blockSpace(),
            "the protocol was not built over this trace's blocks; "
            "build it over DecodedTrace::blockSpace()");

    if (config.traceSink != nullptr)
        protocol.attachTracer(config.traceSink);

    // The elided walk (see the header) visits only the coherence
    // references; the full walk visits every record.
    const std::uint64_t num_records = decoded.numRecords();
    fatalIf(num_records == 0, "cannot simulate an empty trace");
    const bool elide = !protocol.finiteCaches()
        && protocol.tracer() == nullptr
        && config.invariantCheckPeriod == 0
        && num_records <= indexableRecords;
    const std::uint32_t *const coherence = decoded.coherenceRefs.data();
    const std::uint64_t visits =
        elide ? decoded.coherenceRefs.size() : num_records;

    EventCounts warmup_events;
    OpCounts warmup_ops;
    Histogram warmup_hist;
    bool warmup_taken = config.warmupRefs == 0;

    PhaseBreakdown phases;
    const std::uint64_t loop_start = PhaseTimer::nowNs();
    std::uint64_t measure_start = loop_start;

    // Warm-up counts every record, instructions included; the
    // snapshot is taken before the first measured record, after
    // `visited` visits, and includes what the elided walk skipped
    // before it.
    const auto take_warmup = [&](std::uint64_t visited) {
        warmup_events = protocol.events();
        if (elide) {
            const auto fetches = static_cast<std::uint64_t>(std::count(
                decoded.ops.begin(),
                decoded.ops.begin()
                    + static_cast<std::ptrdiff_t>(config.warmupRefs),
                decodedOpInstr));
            addSkipped(warmup_events, config.warmupRefs, fetches,
                       visited);
        }
        warmup_ops = protocol.ops();
        warmup_hist = protocol.cleanWriteHolders();
        warmup_taken = true;
        measure_start = PhaseTimer::nowNs();
        phases.add(Phase::Warmup, measure_start - loop_start);
    };

    std::uint64_t data_refs = 0;
    for (std::uint64_t visit = 0; visit < visits; ++visit) {
        const std::uint64_t i = elide ? coherence[visit] : visit;
        if (!warmup_taken && i >= config.warmupRefs)
            take_warmup(visit);
        const std::uint8_t op = decoded.ops[i];
        if ((op & decodedOpKindMask) == decodedOpInstr) {
            protocol.instruction();
            continue;
        }
        const CacheId cache = decoded.caches[i];
        const BlockNum block = decoded.blocks[i];
        const bool first_ref = (op & decodedOpFirstRef) != 0;
        if ((op & decodedOpKindMask) == decodedOpRead)
            protocol.read(cache, block, first_ref);
        else
            protocol.write(cache, block, first_ref);
        ++data_refs;
        if (config.invariantCheckPeriod != 0
            && data_refs % config.invariantCheckPeriod == 0) {
            protocol.checkAllInvariants();
        }
    }
    // The elided walk can pass its last visit before the boundary.
    if (!warmup_taken && config.warmupRefs < num_records)
        take_warmup(visits);
    if (elide) {
        addSkipped(protocol.events(), num_records,
                   num_records - decoded.dataRefs, visits);
    }
    if (config.invariantCheckPeriod != 0)
        protocol.checkAllInvariants();
    fatalIf(!warmup_taken,
            "warm-up of ", config.warmupRefs,
            " references consumed the whole trace (",
            num_records, " references)");
    const std::uint64_t loop_end = PhaseTimer::nowNs();
    phases.add(Phase::Simulate, loop_end - measure_start);

    SimResult result;
    result.scheme = protocol.name();
    result.traceName = decoded.name;
    result.numCaches = protocol.numCaches();
    result.events = protocol.events();
    result.events.subtract(warmup_events);
    result.ops = protocol.ops();
    result.ops.subtract(warmup_ops);
    result.cleanWriteHolders = protocol.cleanWriteHolders();
    result.cleanWriteHolders.subtract(warmup_hist);
    result.totalRefs = result.events.totalRefs();
    phases.add(Phase::Reduce, PhaseTimer::nowNs() - loop_end);
    result.phases = phases;
    return result;
}

SimResult
simulateTrace(const DecodedTrace &decoded, const SchemeSpec &scheme,
              const SimConfig &config)
{
    const unsigned caches = decoded.cachesNeeded;
    fatalIf(caches == 0, "trace '", decoded.name,
            "' has no references");
    const auto protocol = makeProtocol(scheme, caches, decoded.blockSpace(),
                                       cacheFactoryFor(config));
    return simulateTrace(decoded, *protocol, config);
}

} // namespace dirsim
