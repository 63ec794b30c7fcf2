/**
 * @file
 * The paper's cache model: an infinite cache that never replaces, so
 * every miss after the first reference to a block is a coherence
 * (invalidation/sharing) miss rather than a capacity or conflict miss.
 */

#ifndef DIRSIM_CACHE_INFINITE_CACHE_HH
#define DIRSIM_CACHE_INFINITE_CACHE_HH

#include <memory>

#include "cache/cache_if.hh"

namespace dirsim
{

/**
 * Unbounded block-state store; see CacheModel for semantics. One flat
 * state array indexed directly by block, so every lookup on the
 * simulation hot path is a single load.
 */
class InfiniteCache final : public CacheModel
{
  public:
    /** @param block_count_arg blocks the cache may hold: [0, count) */
    explicit InfiniteCache(std::uint64_t block_count_arg);

    CacheBlockState
    lookup(BlockNum block) const override
    {
        return block < blockCount ? states[block] : stateNotPresent;
    }
    CacheBlockState access(BlockNum block) override { return lookup(block); }
    CacheLine set(BlockNum block, CacheBlockState state) override;
    CacheBlockState invalidate(BlockNum block) override;
    std::size_t residentBlocks() const override { return resident; }
    void clear() override;
    void forEach(
        const std::function<void(BlockNum, CacheBlockState)> &fn)
        const override;

  private:
    /** State per block, 0 = not resident. */
    CallocArena<CacheBlockState> states;
    std::size_t blockCount = 0;
    std::size_t resident = 0;
};

} // namespace dirsim

#endif // DIRSIM_CACHE_INFINITE_CACHE_HH
