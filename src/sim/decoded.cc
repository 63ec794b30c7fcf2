#include "sim/decoded.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

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

/** Data records a u32 coherence index can address. */
constexpr std::uint64_t indexableDataRefs = std::uint64_t{1} << 32;

static_assert(maxCacheDomain <= std::numeric_limits<std::uint16_t>::max(),
              "DecodedTrace::caches holds cache ids in 16 bits");

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
 * The decode pass, one chunk of up to chunkRecords records at a time
 * (decodeChunk()), fed by the in-memory walk and by
 * TraceSource::next() alike. Its buffers are members, so a decode on
 * the stack makes no heap allocation for them.
 */
class Decoder
{
  public:
    /** Records per chunk: 16 whole bitmap words, so every chunk but
     *  the last ends on a word edge. */
    static constexpr std::size_t chunkRecords = 1024;

    Decoder(unsigned block_bytes, SharingModel sharing_arg,
            std::uint64_t expected_records)
        : blockShift(floorLog2(block_bytes)), sharing(sharing_arg)
    {
        out.blockBytes = block_bytes;
        out.sharing = sharing;
        // The data share of a trace is not known in advance, so the
        // operand columns reserve for every record: the pages the
        // instruction share leaves unwritten are never touched.
        out.dataBits.reserve((expected_records + 63) / 64);
        out.ops.reserve(expected_records);
        out.blocks.reserve(expected_records);
        out.caches.reserve(expected_records);
        // Coherence references are 14–19% of a paper trace's records,
        // so the index fills this reserve in place and is never
        // copied; like the columns' unwritten tails, its unused part
        // costs address space, not memory. Growing by doubling
        // instead frees a chunk per step, and each freed mmap'd chunk
        // raises glibc's mmap threshold, moving later decodes onto
        // the heap: perfbench's finite_sweep peaked 7.8% higher that
        // way. A shrink to fit would write the index a second time.
        out.coherenceRefs.reserve(expected_records / 4);
    }

    /**
     * Decode the next @p count (at most chunkRecords) records. Neither
     * pass branches on a record's kind: the first writes every
     * record's operands at the running data count and advances it by
     * the record's data bit, so the second visits only data records.
     */
    void
    decodeChunk(const TraceRecord *records, std::size_t count)
    {
        // First pass: the chunk's bitmap words, the sizing state
        // (distinct pids over *all* records, or the maximum CPU index,
        // so an instruction-only process still gets a cache) and the
        // data records' block, pid or cpu, and op kind. A run of
        // records from one pid or cpu probes no map again: the key
        // changes on about one record in ten.
        std::size_t data = 0;
        for (std::size_t first = 0; first < count; first += 64) {
            const std::size_t last = std::min(count, first + 64);
            std::uint64_t word = 0;
            for (std::size_t i = first; i < last; ++i) {
                const TraceRecord &record = records[i];
                const std::uint64_t key =
                    sharing == SharingModel::ByProcess
                    ? std::uint64_t{record.pid}
                    : std::uint64_t{record.cpu};
                if (key != sizingKey) {
                    sizingKey = key;
                    if (sharing == SharingModel::ByProcess)
                        sizingPids.idFor(key);
                    else
                        maxCpu = std::max<unsigned>(maxCpu, record.cpu);
                }
                const bool is_data = !record.isInstr();
                word |= std::uint64_t{is_data} << (i - first);
                chunkBlocks[data] = record.addr >> blockShift;
                chunkKeys[data] = key;
                chunkOps[data] =
                    record.isWrite() ? decodedOpWrite : decodedOpRead;
                data += is_data;
            }
            out.dataBits.push_back(word);
        }
        out.records += count;

        // Second pass, over the data records: dense cache ids by first
        // appearance over *data* records (looked up when the key
        // changes), one probe of the block map, and the coherence
        // index written at every record but advanced only past a
        // coherence reference. The ops are completed in the chunk's
        // buffer and appended at once.
        const std::size_t base = out.blocks.size();
        out.blocks.resize(base + data);
        out.caches.resize(base + data);
        std::size_t coherent = out.coherenceRefs.size();
        out.coherenceRefs.resize(coherent + data);
        std::uint32_t *const blocks = out.blocks.data() + base;
        std::uint16_t *const caches = out.caches.data() + base;
        std::uint32_t *const index = out.coherenceRefs.data();
        std::uint64_t key = dataKey;
        CacheId cache = dataCache;
        for (std::size_t j = 0; j < data; ++j) {
            if (j + prefetchDistance < data)
                blockIds.prefetch(chunkBlocks[j + prefetchDistance]);
            if (chunkKeys[j] != key) {
                key = chunkKeys[j];
                cache = cacheIds.idFor(key).first;
            }
            const auto [dense_block, first_ref] =
                blockIds.idFor(chunkBlocks[j]);
            if (first_ref)
                lastReferencer.push_back(cache);
            CacheId &last = lastReferencer[dense_block];
            const bool coherence = first_ref
                | (chunkOps[j] == decodedOpWrite) | (last != cache);
            last = cache;
            index[coherent] = static_cast<std::uint32_t>(base + j);
            coherent += coherence;
            blocks[j] = dense_block;
            // finish() rejects a domain past maxCacheDomain, so an id
            // this cast would wrap never reaches a simulation.
            caches[j] = static_cast<std::uint16_t>(cache);
            chunkOps[j] = static_cast<std::uint8_t>(
                chunkOps[j] | (first_ref ? decodedOpFirstRef : 0));
        }
        dataKey = key;
        dataCache = cache;
        out.ops.insert(out.ops.end(), chunkOps.begin(),
                       chunkOps.begin() + static_cast<std::ptrdiff_t>(data));
        out.coherenceRefs.resize(coherent);
    }

    /** Decode @p source to exhaustion, a chunk at a time. */
    void
    decodeAll(TraceSource &source)
    {
        for (;;) {
            std::size_t count = 0;
            while (count < chunkRecords && source.next(sourceRecords[count]))
                ++count;
            decodeChunk(sourceRecords.data(), count);
            if (count < chunkRecords)
                return;
        }
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
        if (out.dataRefs() > indexableDataRefs)
            out.coherenceRefs = {};
        out.denseToBlock = std::move(blockIds).keys();
        return std::move(out);
    }

  private:
    /** Data records the block map's probe is prefetched ahead. */
    static constexpr std::size_t prefetchDistance = 8;

    DecodedTrace out;
    unsigned blockShift;
    SharingModel sharing;
    DenseIdMap sizingPids;
    unsigned maxCpu = 0;
    DenseIdMap cacheIds;
    DenseIdMap blockIds;
    /** Per dense block, the cache that last referenced it. */
    std::vector<CacheId> lastReferencer;
    /** The pid or cpu of the previous record and of the previous data
     *  record (none yet: no key is wider than 32 bits), and the
     *  latter's cache id. */
    std::uint64_t sizingKey = ~std::uint64_t{0};
    std::uint64_t dataKey = ~std::uint64_t{0};
    CacheId dataCache = invalidCacheId;
    /** The chunk's data records, compacted by the first pass. */
    std::array<BlockNum, chunkRecords> chunkBlocks{};
    std::array<std::uint64_t, chunkRecords> chunkKeys{};
    std::array<std::uint8_t, chunkRecords> chunkOps{};
    /** A chunk read from a TraceSource. */
    std::array<TraceRecord, chunkRecords> sourceRecords{};
};

} // namespace

std::uint64_t
DecodedTrace::dataBefore(std::uint64_t record) const
{
    record = std::min(record, records);
    const std::uint64_t whole = record / 64;
    std::uint64_t count = 0;
    for (std::uint64_t w = 0; w < whole; ++w)
        count += static_cast<std::uint64_t>(std::popcount(dataBits[w]));
    if (record % 64 != 0) {
        const std::uint64_t below = (std::uint64_t{1} << (record % 64)) - 1;
        count += static_cast<std::uint64_t>(
            std::popcount(dataBits[whole] & below));
    }
    return count;
}

std::uint64_t
DecodedTrace::memoryBytes() const
{
    return dataBits.size() * sizeof(std::uint64_t)
        + ops.size() * sizeof(std::uint8_t)
        + blocks.size() * sizeof(std::uint32_t)
        + caches.size() * sizeof(std::uint16_t)
        + denseToBlock.size() * sizeof(BlockNum)
        + coherenceRefs.size() * sizeof(std::uint32_t);
}

DecodedTrace
decodeTrace(TraceSource &source, unsigned block_bytes,
            SharingModel sharing)
{
    checkBlockSize(block_bytes);
    Decoder decoder(block_bytes, sharing, source.sizeHint().value_or(0));
    decoder.decodeAll(source);
    return decoder.finish(source.name(), source.numCpus());
}

DecodedTrace
decodeTrace(const Trace &trace, unsigned block_bytes,
            SharingModel sharing)
{
    checkBlockSize(block_bytes);
    Decoder decoder(block_bytes, sharing, trace.size());
    const TraceRecord *const records = trace.data().data();
    for (std::size_t at = 0; at < trace.size();
         at += Decoder::chunkRecords) {
        decoder.decodeChunk(
            records + at,
            std::min(Decoder::chunkRecords, trace.size() - at));
    }
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
    // references; the full walk visits every data record and counts
    // the fetches between them.
    const std::uint64_t num_records = decoded.numRecords();
    fatalIf(num_records == 0, "cannot simulate an empty trace");
    fatalIf(config.warmupRefs >= num_records,
            "warm-up of ", config.warmupRefs,
            " references consumed the whole trace (",
            num_records, " references)");
    const bool elide = !protocol.finiteCaches()
        && protocol.tracer() == nullptr
        && config.invariantCheckPeriod == 0
        && decoded.dataRefs() <= indexableDataRefs;

    EventCounts warmup_events;
    OpCounts warmup_ops;
    Histogram warmup_hist;
    bool warmup_taken = config.warmupRefs == 0;

    PhaseBreakdown phases;
    const std::uint64_t loop_start = PhaseTimer::nowNs();
    std::uint64_t measure_start = loop_start;

    // Warm-up counts every record, instructions included; the
    // snapshot is taken before the first measured record.
    const auto take_warmup = [&] {
        warmup_events = protocol.events();
        warmup_ops = protocol.ops();
        warmup_hist = protocol.cleanWriteHolders();
        warmup_taken = true;
        measure_start = PhaseTimer::nowNs();
        phases.add(Phase::Warmup, measure_start - loop_start);
    };

    // Simulate the data record with data index d; only the full walk,
    // which visits every data record, checks invariants.
    const auto step = [&](std::uint64_t d) {
        const std::uint8_t op = decoded.ops[d];
        const CacheId cache = decoded.caches[d];
        const BlockNum block = decoded.blocks[d];
        const bool first_ref = (op & decodedOpFirstRef) != 0;
        if ((op & decodedOpKindMask) == decodedOpRead)
            protocol.read(cache, block, first_ref);
        else
            protocol.write(cache, block, first_ref);
        if (config.invariantCheckPeriod != 0
            && (d + 1) % config.invariantCheckPeriod == 0) {
            protocol.checkAllInvariants();
        }
    };

    if (elide) {
        // The warm-up boundary as a data index: a data record is at
        // or past record warmupRefs exactly when its data index is at
        // or past the data records before it. The snapshot adds what
        // the walk skipped before the boundary.
        const std::uint64_t boundary =
            decoded.dataBefore(config.warmupRefs);
        const std::uint64_t visits = decoded.coherenceRefs.size();
        const auto warm_up = [&](std::uint64_t visited) {
            take_warmup();
            addSkipped(warmup_events, config.warmupRefs,
                       config.warmupRefs - boundary, visited);
        };
        for (std::uint64_t visit = 0; visit < visits; ++visit) {
            const std::uint64_t d = decoded.coherenceRefs[visit];
            if (!warmup_taken && d >= boundary)
                warm_up(visit);
            step(d);
        }
        // The walk can pass its last visit before the boundary.
        if (!warmup_taken)
            warm_up(visits);
        addSkipped(protocol.events(), num_records,
                   num_records - decoded.dataRefs(), visits);
    } else {
        // One bitmap word at a time, each data record after the run
        // of fetches before it, added to Instr at once; `next` is the
        // first record not yet counted. A fetch run that crosses the
        // warm-up boundary is added in two parts around the snapshot.
        std::uint64_t next = 0;
        const auto count_fetches_to = [&](std::uint64_t record) {
            if (!warmup_taken && record >= config.warmupRefs) {
                protocol.events().add(EventType::Instr,
                                      config.warmupRefs - next);
                next = config.warmupRefs;
                take_warmup();
            }
            protocol.events().add(EventType::Instr, record - next);
            next = record + 1;
        };
        std::uint64_t d = 0;
        for (std::size_t w = 0; w < decoded.dataBits.size(); ++w) {
            for (std::uint64_t bits = decoded.dataBits[w]; bits != 0;
                 bits &= bits - 1) {
                count_fetches_to(w * 64
                                 + static_cast<unsigned>(
                                     std::countr_zero(bits)));
                step(d++);
            }
        }
        count_fetches_to(num_records);
    }
    if (config.invariantCheckPeriod != 0)
        protocol.checkAllInvariants();
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
