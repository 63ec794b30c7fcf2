#include "sim/decoded.hh"

#include "common/bitops.hh"
#include "common/dense_id_map.hh"
#include "common/logging.hh"
#include "protocols/registry.hh"
#include "trace/reader.hh"

namespace dirsim
{

std::uint64_t
DecodedTrace::memoryBytes() const
{
    return ops.size() * sizeof(std::uint8_t)
        + blocks.size() * sizeof(std::uint32_t)
        + caches.size() * sizeof(CacheId)
        + denseToBlock.size() * sizeof(BlockNum);
}

DecodedTrace
decodeTrace(TraceSource &source, unsigned block_bytes,
            SharingModel sharing)
{
    checkBlockSize(block_bytes);

    DecodedTrace out;
    out.blockBytes = block_bytes;
    out.sharing = sharing;

    if (const auto hint = source.sizeHint()) {
        out.ops.reserve(*hint);
        out.blocks.reserve(*hint);
        out.caches.reserve(*hint);
    }

    // Sizing state: distinct pids over *all* records / the maximum CPU
    // index, so an instruction-only process still gets a cache. The
    // mapping state: dense ids handed out in order of first
    // appearance over *data* records only. DenseIdMap rather than
    // std::unordered_map: these three insert-or-finds per record are
    // the whole decode pass, and the flat table halves its cost.
    DenseIdMap sizing_pids;
    unsigned max_cpu = 0;
    DenseIdMap cache_ids;
    DenseIdMap block_ids;

    TraceRecord record;
    while (source.next(record)) {
        if (sharing == SharingModel::ByProcess)
            sizing_pids.idFor(record.pid);
        else if (record.cpu > max_cpu)
            max_cpu = record.cpu;

        if (record.isInstr()) {
            // Zero-filled so the arrays stay index-aligned; the op
            // kind alone routes the record.
            out.ops.push_back(decodedOpInstr);
            out.blocks.push_back(0);
            out.caches.push_back(0);
            continue;
        }

        const std::uint64_t key = sharing == SharingModel::ByProcess
            ? static_cast<std::uint64_t>(record.pid)
            : static_cast<std::uint64_t>(record.cpu);
        const CacheId cache = cache_ids.idFor(key).first;

        const BlockNum block =
            blockNumber(record.addr, block_bytes);
        const auto [dense_block, first_ref] = block_ids.idFor(block);
        if (first_ref)
            out.denseToBlock.push_back(block);

        std::uint8_t op = record.isRead() ? decodedOpRead
                                          : decodedOpWrite;
        if (first_ref)
            op |= decodedOpFirstRef;
        out.ops.push_back(op);
        out.blocks.push_back(dense_block);
        out.caches.push_back(cache);
        ++out.dataRefs;
    }

    out.name = source.name();
    out.cachesUsed = static_cast<unsigned>(cache_ids.size());
    if (sharing == SharingModel::ByProcess) {
        out.cachesNeeded = static_cast<unsigned>(sizing_pids.size());
    } else {
        const unsigned observed =
            out.numRecords() > 0 ? max_cpu + 1 : 0;
        out.cachesNeeded = observed > 0 ? observed : source.numCpus();
    }
    return out;
}

DecodedTrace
decodeTrace(const Trace &trace, unsigned block_bytes,
            SharingModel sharing)
{
    MemoryTraceSource source(trace);
    return decodeTrace(source, block_bytes, sharing);
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

    std::uint64_t data_refs = 0;
    std::uint64_t processed = 0;

    EventCounts warmup_events;
    OpCounts warmup_ops;
    Histogram warmup_hist;
    bool warmup_taken = config.warmupRefs == 0;

    PhaseBreakdown phases;
    const std::uint64_t loop_start = PhaseTimer::nowNs();
    std::uint64_t measure_start = loop_start;

    // Warm-up counts every record, instructions included; the
    // snapshot is taken before the first measured record.
    const std::uint64_t num_records = decoded.numRecords();
    for (std::uint64_t i = 0; i < num_records; ++i) {
        if (!warmup_taken && processed >= config.warmupRefs) {
            warmup_events = protocol.events();
            warmup_ops = protocol.ops();
            warmup_hist = protocol.cleanWriteHolders();
            warmup_taken = true;
            measure_start = PhaseTimer::nowNs();
            phases.add(Phase::Warmup, measure_start - loop_start);
        }
        ++processed;
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
    fatalIf(processed == 0, "cannot simulate an empty trace");
    if (config.invariantCheckPeriod != 0)
        protocol.checkAllInvariants();
    fatalIf(!warmup_taken,
            "warm-up of ", config.warmupRefs,
            " references consumed the whole trace (",
            processed, " references)");
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
