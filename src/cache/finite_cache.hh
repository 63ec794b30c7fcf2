/**
 * @file
 * Set-associative LRU cache used by the finite-cache extension
 * experiment (the paper argues finite-cache performance can be
 * estimated "to first order by adding the costs due to the finite
 * cache size"; this model lets us measure that directly).
 */

#ifndef DIRSIM_CACHE_FINITE_CACHE_HH
#define DIRSIM_CACHE_FINITE_CACHE_HH

#include <list>
#include <vector>

#include "cache/cache_if.hh"

namespace dirsim
{

/** Geometry of a FiniteCache. */
struct FiniteCacheConfig
{
    /** Total capacity in bytes; must be a power of two. */
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
 * Set-associative LRU cache with an eviction callback.
 *
 * The protocol engine registers the callback so an evicted dirty
 * block can be written back and the directory updated, keeping the
 * global coherence state consistent.
 */
class FiniteCache : public CacheModel
{
  public:
    /**
     * @param blocks_arg the blocks the cache may hold. A block's set is
     *        the low bits of its original number (BlockSpace::label),
     *        as in hardware, so replacement does not depend on the
     *        order in which the trace first touched blocks. The
     *        default space has no labels: indices are block numbers.
     */
    explicit FiniteCache(const FiniteCacheConfig &config_arg,
                         const BlockSpace &blocks_arg = {});

    CacheBlockState lookup(BlockNum block) const override;
    bool set(BlockNum block, CacheBlockState state) override;
    CacheBlockState invalidate(BlockNum block) override;
    std::size_t residentBlocks() const override { return resident; }
    void clear() override;
    void forEach(
        const std::function<void(BlockNum, CacheBlockState)> &fn)
        const override;

    /**
     * Register the hook invoked with (block, state) each time LRU
     * replacement evicts a block.
     */
    void
    setEvictionHook(EvictionHook hook) override
    {
        onEvict = std::move(hook);
    }

    /** Mark @p block most-recently-used without changing its state. */
    void touch(BlockNum block) override;

    const FiniteCacheConfig &config() const { return cfg; }

    /** Total LRU evictions performed. */
    std::uint64_t evictions() const { return evicted; }

  private:
    struct Line
    {
        BlockNum block;
        CacheBlockState state;
    };
    /** One LRU list per set: front == most recently used. */
    using Set = std::list<Line>;

    Set &setFor(BlockNum block);
    const Set &setFor(BlockNum block) const;

    FiniteCacheConfig cfg;
    BlockSpace blocks;
    std::vector<Set> sets;
    std::size_t resident = 0;
    std::uint64_t evicted = 0;
    EvictionHook onEvict;
};

} // namespace dirsim

#endif // DIRSIM_CACHE_FINITE_CACHE_HH
