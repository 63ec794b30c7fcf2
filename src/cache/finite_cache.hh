/**
 * @file
 * Set-associative LRU cache used by the finite-cache extension
 * experiment (the paper argues finite-cache performance can be
 * estimated "to first order by adding the costs due to the finite
 * cache size"; this model lets us measure that directly).
 */

#ifndef DIRSIM_CACHE_FINITE_CACHE_HH
#define DIRSIM_CACHE_FINITE_CACHE_HH

#include <memory>

#include "cache/cache_if.hh"

namespace dirsim
{

/** Geometry of a FiniteCache. */
struct FiniteCacheConfig
{
    /** Capacity limit: a cache reserves address space for all its
     *  lines when built. 16384× ext_finite_cache's largest size. */
    static constexpr std::uint64_t maxCapacityBytes = 1ull << 32;

    /** Total capacity in bytes; a power of two <= maxCapacityBytes. */
    std::uint64_t capacityBytes = 64 * 1024;
    /** Associativity; must divide capacity/blockBytes. */
    unsigned ways = 4;
    /** Block size in bytes; must match the simulation block size. */
    unsigned blockBytes = defaultBlockBytes;

    /** Number of sets implied by the geometry. */
    std::uint64_t numSets() const;

    /** Validate; throws UsageError on impossible geometry. */
    void check() const;
};

/**
 * Set-associative LRU cache. set() returns the line an install
 * evicted, so the protocol engine can write a dirty victim back and
 * update the directory, keeping the coherence state consistent.
 *
 * Each set is `ways` contiguous lines: the resident ones first, in
 * MRU order, then empty ones (state stateNotPresent). A probe scans
 * from the front; promoting a line shifts the lines before it down
 * one, so LRU and forEach() order are those of a per-set list.
 */
class FiniteCache final : public CacheModel
{
  public:
    /**
     * @param blocks_arg the blocks the cache may hold. A block's set is
     *        the low bits of its original number (BlockSpace::label),
     *        as in hardware, so replacement does not depend on the
     *        order in which the trace first touched blocks. The
     *        default space has no labels: indices are block numbers.
     *        Either way a cached block is below 2^32.
     */
    explicit FiniteCache(const FiniteCacheConfig &config_arg,
                         const BlockSpace &blocks_arg = {});

    CacheBlockState lookup(BlockNum block) const override;
    CacheBlockState access(BlockNum block) override;
    CacheLine set(BlockNum block, CacheBlockState state) override;
    CacheBlockState invalidate(BlockNum block) override;
    std::size_t residentBlocks() const override { return resident; }
    void clear() override;
    void forEach(
        const std::function<void(BlockNum, CacheBlockState)> &fn)
        const override;

    const FiniteCacheConfig &config() const { return cfg; }

    /** Total LRU evictions performed. */
    std::uint64_t evictions() const { return evicted; }

  private:
    struct Line
    {
        std::uint32_t block;
        CacheBlockState state;
    };

    /** The first (MRU) line of @p block's set. */
    Line *setFor(BlockNum block) const
    {
        return &lines[(blocks.label(block) & setMask) * cfg.ways];
    }

    /**
     * Position of @p block in @p set, or of the set's first empty
     * line when it is absent, or ways when it is absent and the set
     * is full.
     */
    unsigned find(const Line *set, BlockNum block) const;

    FiniteCacheConfig cfg;
    BlockSpace blocks;
    std::uint64_t setMask = 0;
    /** numSets × ways lines, set-major: only the pages of sets the
     *  cache touches materialize. */
    CallocArena<Line> lines;
    std::size_t resident = 0;
    std::uint64_t evicted = 0;
};

} // namespace dirsim

#endif // DIRSIM_CACHE_FINITE_CACHE_HH
