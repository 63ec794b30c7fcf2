#include "cache/infinite_cache.hh"

#include "common/logging.hh"

namespace dirsim
{

InfiniteCache::InfiniteCache(std::uint64_t block_count_arg)
    : states(callocArena<CacheBlockState>(block_count_arg)),
      blockCount(block_count_arg)
{
}

CacheLine
InfiniteCache::set(BlockNum block, CacheBlockState state)
{
    panicIfNot(state != stateNotPresent,
               "InfiniteCache::set with the reserved not-present state");
    panicIfNot(block < blockCount,
               "InfiniteCache::set: block ", block,
               " outside the arena of ", blockCount, " blocks");
    CacheBlockState &slot = states[block];
    resident += slot == stateNotPresent ? 1 : 0;
    slot = state;
    return {};
}

CacheBlockState
InfiniteCache::invalidate(BlockNum block)
{
    if (block >= blockCount)
        return stateNotPresent;
    const CacheBlockState old = states[block];
    states[block] = stateNotPresent;
    resident -= old != stateNotPresent ? 1 : 0;
    return old;
}

void
InfiniteCache::clear()
{
    // Fresh calloc instead of a fill: the zeroing stays lazy.
    states = callocArena<CacheBlockState>(blockCount);
    resident = 0;
}

void
InfiniteCache::forEach(
    const std::function<void(BlockNum, CacheBlockState)> &fn) const
{
    for (BlockNum block = 0; block < blockCount; ++block) {
        if (states[block] != stateNotPresent)
            fn(block, states[block]);
    }
}

} // namespace dirsim
