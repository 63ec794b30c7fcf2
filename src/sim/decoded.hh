/**
 * @file
 * Decode-once reference streams.
 *
 * A grid run feeds the same trace to many schemes. The raw trace is
 * the wrong representation to replay: every cell re-hashes addresses
 * into block numbers, re-discovers first references, and re-maps pids
 * onto caches — identical work per cell. DecodedTrace performs that
 * work exactly once: a single pass over a Trace or TraceSource emits
 * a compact structure-of-arrays record stream (op kind + first-ref
 * flag, densified block index, dense cache id) plus the exact block,
 * cache, and reference counts a simulation needs.
 *
 * The densified block index is the key enabler: with blocks numbered
 * 0..blockCount-1 in order of first appearance, every per-block arena
 * of the engine is a flat array sized once (blockSpace()), so the
 * per-reference hot path performs no hashing at all. denseToBlock[]
 * retains the original block numbers for trace-sink labeling and for
 * finite caches (whose set indexing needs real addresses).
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

/** DecodedTrace::ops encoding: low bits = kind, bit 4 = first ref. */
constexpr std::uint8_t decodedOpInstr = 0;
constexpr std::uint8_t decodedOpRead = 1;
constexpr std::uint8_t decodedOpWrite = 2;
constexpr std::uint8_t decodedOpKindMask = 0x03;
constexpr std::uint8_t decodedOpFirstRef = 0x10;

/**
 * A trace decoded into simulation operands (see the file comment).
 *
 * The three record arrays are index-aligned with the source record
 * order; instruction rows carry zeros in blocks[]/caches[] so the
 * arrays never need separate cursors. The struct is immutable after
 * decoding and safe to share read-only across concurrent simulations
 * (the runner decodes each trace once per grid).
 */
struct DecodedTrace
{
    std::string name; ///< workload name (trace/file header)

    /** decodedOp* kind plus the decodedOpFirstRef flag. */
    std::vector<std::uint8_t> ops;
    /** Densified block index (first-appearance order over data refs). */
    std::vector<std::uint32_t> blocks;
    /** Dense cache id (first-appearance order over data refs). */
    std::vector<CacheId> caches;
    /** Dense block index -> original block number. */
    std::vector<BlockNum> denseToBlock;
    /**
     * Ascending record indices of the coherence references (see the
     * file comment); empty for a stream of more than 2^32 records,
     * whose indices a u32 cannot hold. Not part of the stream's
     * identity: it follows from the arrays above, and
     * traceChecksumFnv64() does not hash it.
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
    /** Data references in the stream (reads + writes). */
    std::uint64_t dataRefs = 0;

    /** Total records (instructions included). */
    std::uint64_t numRecords() const { return ops.size(); }

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

    /** Heap bytes held by the record arrays (for diagnostics). */
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
 * runs when the caches are finite (a hit updates LRU state), when a
 * trace sink is attached (it sees every data reference), when
 * config.invariantCheckPeriod is set, and for a stream of more than
 * 2^32 records.
 *
 * The protocol must be built over decoded.blockSpace() with enough
 * caches for decoded.cachesUsed; config.blockBytes and config.sharing
 * must equal the decode-time values (the densification would not
 * match otherwise).
 *
 * @throws UsageError on any of those mismatches, or when @p config
 *         requests a finite cache but @p protocol does not run finite
 *         caches (the geometry cannot be applied retroactively)
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
