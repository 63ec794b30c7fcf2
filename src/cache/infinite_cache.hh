/**
 * @file
 * The paper's cache model: an infinite cache that never replaces, so
 * every miss after the first reference to a block is a coherence
 * (invalidation/sharing) miss rather than a capacity or conflict miss.
 */

#ifndef DIRSIM_CACHE_INFINITE_CACHE_HH
#define DIRSIM_CACHE_INFINITE_CACHE_HH

#include <cstdlib>
#include <memory>

#include "cache/cache_if.hh"

namespace dirsim
{

/**
 * Unbounded block-state store; see CacheModel for semantics. One flat
 * state array indexed directly by block, so every lookup on the
 * simulation hot path is a single load.
 */
class InfiniteCache : public CacheModel
{
  public:
    /** @param block_count_arg blocks the cache may hold: [0, count) */
    explicit InfiniteCache(std::uint64_t block_count_arg);

    CacheBlockState lookup(BlockNum block) const override;
    bool set(BlockNum block, CacheBlockState state) override;
    CacheBlockState invalidate(BlockNum block) override;
    std::size_t residentBlocks() const override { return resident; }
    void clear() override;
    void forEach(
        const std::function<void(BlockNum, CacheBlockState)> &fn)
        const override;

  private:
    struct FreeDeleter
    {
        void operator()(CacheBlockState *p) const { std::free(p); }
    };

    /** (Re)claim a zeroed arena of blockCount states. */
    void allocate();

    /**
     * State per block, 0 = not resident. A calloc'd buffer rather than
     * a std::vector: a grid at large N builds one arena per cache per
     * cell, and zero-filling them all eagerly (numCaches × blockCount
     * bytes) costs more than the simulation itself when each cache
     * only ever touches a sliver of the block space. calloc leaves
     * untouched pages on the kernel's zero page, so setup cost follows
     * the blocks a cache actually uses.
     */
    std::unique_ptr<CacheBlockState[], FreeDeleter> states;
    std::size_t blockCount = 0;
    std::size_t resident = 0;
};

} // namespace dirsim

#endif // DIRSIM_CACHE_INFINITE_CACHE_HH
