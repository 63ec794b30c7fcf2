/**
 * @file
 * Common interface for the per-process cache models.
 *
 * Coherence protocols attach a small protocol-specific state byte to
 * each resident block; the cache models only manage residency and
 * state storage. State value 0 is reserved to mean "not resident" and
 * is never stored.
 *
 * Blocks are named by dense indices (sim/decoded.hh): a simulation
 * knows every block it will touch before it starts, so every
 * per-block arena is a flat array sized once, at construction, from a
 * BlockSpace, by callocArena() (common/arena.hh).
 */

#ifndef DIRSIM_CACHE_CACHE_IF_HH
#define DIRSIM_CACHE_CACHE_IF_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "common/arena.hh"
#include "common/types.hh"

namespace dirsim
{

/** Protocol-defined per-block cache state; 0 means "not resident". */
using CacheBlockState = std::uint8_t;

/** Reserved "not resident" state value. */
inline constexpr CacheBlockState stateNotPresent = 0;

/**
 * The block indices a simulation's per-block arenas cover:
 * [0, count), numbered in order of first appearance by the trace
 * decode (sim/decoded.hh).
 */
struct BlockSpace
{
    std::uint32_t count = 0;
    /**
     * Original block number of each index, or nullptr when every
     * index is its own block number. Finite caches choose sets by it
     * and trace sinks label events with it; the table must outlive
     * everything built over the space.
     */
    const BlockNum *labels = nullptr;

    /** Original block number of @p index. */
    BlockNum label(BlockNum index) const
    {
        return labels != nullptr ? labels[index] : index;
    }

    bool operator==(const BlockSpace &) const = default;
};

/** One cache line: a block and its state (stateNotPresent: no line). */
struct CacheLine
{
    BlockNum block = 0;
    CacheBlockState state = stateNotPresent;
};

/**
 * Abstract per-process cache holding protocol state per block.
 *
 * Implementations: InfiniteCache (the paper's model, no replacement)
 * and FiniteCache (set-associative LRU, whose set() returns the line
 * replacement evicted).
 */
class CacheModel
{
  public:
    virtual ~CacheModel() = default;

    /**
     * State of @p block, or stateNotPresent.
     */
    virtual CacheBlockState lookup(BlockNum block) const = 0;

    /**
     * A reference's probe: lookup() that, on a hit, also marks
     * @p block most-recently-used, in one pass over its set. Caches
     * without replacement only look up.
     */
    virtual CacheBlockState access(BlockNum block) = 0;

    /**
     * Install or update @p block with @p state; either makes it
     * most-recently-used.
     *
     * @param state must not be stateNotPresent (panics otherwise)
     * @return the line an install evicted to make room, or a line
     *         with state stateNotPresent when none was evicted
     */
    virtual CacheLine set(BlockNum block, CacheBlockState state) = 0;

    /**
     * Remove @p block.
     *
     * @return the state the block had, or stateNotPresent
     */
    virtual CacheBlockState invalidate(BlockNum block) = 0;

    /** Number of resident blocks. */
    virtual std::size_t residentBlocks() const = 0;

    /** Drop everything. */
    virtual void clear() = 0;

    /** Visit every resident (block, state) pair. */
    virtual void forEach(
        const std::function<void(BlockNum, CacheBlockState)> &fn)
        const = 0;
};

/** Factory producing one cache over @p blocks per coherence-domain
 *  member. */
using CacheFactory =
    std::function<std::unique_ptr<CacheModel>(const BlockSpace &blocks)>;

} // namespace dirsim

#endif // DIRSIM_CACHE_CACHE_IF_HH
