/**
 * @file
 * Decode-once reference streams.
 *
 * A grid run feeds the same trace to many schemes. The raw trace is
 * the wrong representation to replay: every cell re-hashes addresses
 * into block numbers, re-discovers first references, and re-maps pids
 * onto caches — identical work per cell. DecodedTrace performs that
 * work exactly once: a single pass over a Trace or TraceSource emits
 * a compact structure-of-arrays record stream plus the exact block,
 * cache, and reference counts a simulation needs. About half of a
 * paper trace is instruction fetches, which carry no operands, so the
 * stream marks each record's kind with one bit and keeps operands
 * (op kind + first-ref flag, densified block index, dense cache id)
 * for the data records only: 1 bit per record plus 7 bytes per data
 * record.
 *
 * The densified block index is the key enabler: with blocks numbered
 * 0..blockCount-1 in order of first appearance, every per-block arena
 * of the engine is a flat array sized once (blockSpace()), so the
 * per-reference hot path performs no hashing at all. denseToBlock[]
 * retains the original block numbers for trace-sink labeling and for
 * finite caches (whose set indexing needs real addresses).
 *
 * The pass works 1,024 records (16 bitmap words) at a time, in two
 * loops with no branch on a record's kind, which changes on about
 * every other record of a paper trace: the first builds the chunk's
 * bitmap words and compacts its data records, the second densifies
 * only those.
 *
 * The same pass classifies the records. A *coherence reference* is a
 * write, a first reference, or a read of a block whose last reference
 * came from a different cache; the rest — instruction fetches and
 * *private re-reads* (a cache reading a block it made the last
 * reference to) — change no state on infinite caches, so those cells
 * replay only the coherence references.
 *
 * simulateTrace(DecodedTrace, CoherenceProtocol &, ...) is the one
 * loop that walks references: every other entry point decodes first
 * and ends there.
 */

#ifndef DIRSIM_SIM_DECODED_HH
#define DIRSIM_SIM_DECODED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace dirsim
{

/**
 * DecodedTrace::ops encoding: low bits = kind, bit 4 = first ref. The
 * stream holds no instruction ops; decodedOpInstr is the op byte
 * traceChecksumFnv64() hashes for an instruction record.
 */
constexpr std::uint8_t decodedOpInstr = 0;
constexpr std::uint8_t decodedOpRead = 1;
constexpr std::uint8_t decodedOpWrite = 2;
constexpr std::uint8_t decodedOpKindMask = 0x03;
constexpr std::uint8_t decodedOpFirstRef = 0x10;

/**
 * A trace decoded into simulation operands (see the file comment).
 *
 * dataBits marks the data records among all records; the three
 * operand columns (ops, blocks, caches) hold one entry per data
 * record, in record order, so the data record with data index d is
 * the (d+1)-th set bit of dataBits. The struct is immutable after
 * decoding and safe to share read-only across concurrent simulations
 * (the runner decodes each trace once per grid).
 */
struct DecodedTrace
{
    std::string name; ///< workload name (trace/file header)

    /**
     * One bit per record, 64 to a word: bit i % 64 of word i / 64 is
     * set when record i is a data record (a read or a write). Bits
     * past numRecords() are clear.
     */
    std::vector<std::uint64_t> dataBits;
    /** Per data record: decodedOp* kind plus decodedOpFirstRef. */
    std::vector<std::uint8_t> ops;
    /** Per data record: densified block index (first-appearance
     *  order). */
    std::vector<std::uint32_t> blocks;
    /** Per data record: dense cache id (first-appearance order);
     *  below maxCacheDomain, so 16 bits hold it. */
    std::vector<std::uint16_t> caches;
    /** Dense block index -> original block number. */
    std::vector<BlockNum> denseToBlock;
    /**
     * Ascending data indices (into the operand columns) of the
     * coherence references (see the file comment); empty for a stream
     * of more than 2^32 data records, whose indices a u32 cannot
     * hold. Not part of the stream's identity: it follows from the
     * columns above, and traceChecksumFnv64() does not hash it.
     */
    std::vector<std::uint32_t> coherenceRefs;

    /** The geometry the stream was decoded under. */
    unsigned blockBytes = 0;
    SharingModel sharing = SharingModel::ByProcess;

    /**
     * Caches a simulation of this trace must build: distinct pids
     * over all records (ByProcess) or observed CPUs, falling back to
     * the header CPU count (ByProcessor).
     */
    unsigned cachesNeeded = 0;
    /**
     * Distinct pids/CPUs over data records only — the cache ids the
     * stream actually uses (<= cachesNeeded; instruction-only
     * processes consume no cache).
     */
    unsigned cachesUsed = 0;
    /** Records decoded (see numRecords()). */
    std::uint64_t records = 0;

    /** Total records (instructions included). */
    std::uint64_t numRecords() const { return records; }

    /** Data references in the stream (reads + writes). */
    std::uint64_t dataRefs() const { return ops.size(); }

    /** Data records among the first @p record records (all of them
     *  past numRecords()): record @p record's data index when it is a
     *  data record. */
    std::uint64_t dataBefore(std::uint64_t record) const;

    /** Distinct blocks the data references touch. */
    std::uint32_t blockCount() const
    {
        return static_cast<std::uint32_t>(denseToBlock.size());
    }

    /** The block space a protocol simulating this stream is built
     *  over (it refers to denseToBlock). */
    BlockSpace blockSpace() const
    {
        return {blockCount(), denseToBlock.data()};
    }

    /** Bytes held by the bitmap and the arrays (for diagnostics). */
    std::uint64_t memoryBytes() const;
};

/**
 * Decode an in-memory trace under @p block_bytes / @p sharing.
 * The trace may be empty (simulating the result then fails exactly
 * like simulating the empty trace itself).
 *
 * @throws UsageError when the trace needs more caches than the
 *         engine holds (maxCacheDomain, directory/sharer_set.hh)
 */
DecodedTrace decodeTrace(const Trace &trace, unsigned block_bytes,
                         SharingModel sharing);

/** Streaming variant: decode @p source to exhaustion; throws as
 *  the in-memory one does. */
DecodedTrace decodeTrace(TraceSource &source, unsigned block_bytes,
                         SharingModel sharing);

/**
 * Decode a trace file in a single streaming read — this both sizes
 * the coherence domain and captures the records, so a file is read
 * exactly once (a TraceRef::file() job, ExperimentRunner::runFiles).
 */
DecodedTrace decodeTraceFile(const std::string &path,
                             unsigned block_bytes,
                             SharingModel sharing);

/**
 * Run a decoded stream through @p protocol: the simulation loop every
 * entry point ends in.
 *
 * On infinite caches the loop visits only decoded.coherenceRefs and
 * adds the skipped records to the protocol's counters in bulk: an
 * instruction fetch adds Instr, a private re-read Read and RdHit
 * (the contract on CoherenceProtocol::read()). Every counter, the
 * warm-up snapshot included, equals the full walk's. The full walk
 * visits every data record in order, a bitmap word at a time, and
 * adds the run of fetches before each to Instr at once, so a sink
 * numbers each reference as a record-by-record walk would; it runs
 * when the caches are finite (a hit updates LRU state), when a trace
 * sink is attached (it sees every data reference), when
 * config.invariantCheckPeriod is set, and for a stream of more than
 * 2^32 data records.
 *
 * The protocol must be built over decoded.blockSpace() with enough
 * caches for decoded.cachesUsed; config.blockBytes and config.sharing
 * must equal the decode-time values (the densification would not
 * match otherwise).
 *
 * @throws UsageError on any of those mismatches, when @p config
 *         requests a finite cache but @p protocol does not run finite
 *         caches (the geometry cannot be applied retroactively), or
 *         when the warm-up spans the whole trace
 */
SimResult simulateTrace(const DecodedTrace &decoded,
                        CoherenceProtocol &protocol,
                        const SimConfig &config = {});

/**
 * Build the scheme over the decoded stream's caches and blocks
 * (honoring SimConfig::finiteCache), then simulate — the decoded
 * counterpart of simulateTrace(Trace, SchemeSpec, ...).
 */
SimResult simulateTrace(const DecodedTrace &decoded,
                        const SchemeSpec &scheme,
                        const SimConfig &config = {});

} // namespace dirsim

#endif // DIRSIM_SIM_DECODED_HH
