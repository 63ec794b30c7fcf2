#include "cache/infinite_cache.hh"

#include "common/logging.hh"

namespace dirsim
{

InfiniteCache::InfiniteCache(std::uint64_t block_count_arg)
    : blockCount(block_count_arg)
{
    allocate();
}

CacheBlockState
InfiniteCache::lookup(BlockNum block) const
{
    return block < blockCount ? states[block] : stateNotPresent;
}

bool
InfiniteCache::set(BlockNum block, CacheBlockState state)
{
    panicIfNot(state != stateNotPresent,
               "InfiniteCache::set with the reserved not-present state");
    panicIfNot(block < blockCount,
               "InfiniteCache::set: block ", block,
               " outside the arena of ", blockCount, " blocks");
    CacheBlockState &slot = states[block];
    const bool inserted = slot == stateNotPresent;
    slot = state;
    resident += inserted ? 1 : 0;
    return inserted;
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
    allocate();
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

void
InfiniteCache::allocate()
{
    // calloc so untouched pages never materialize; see the header.
    auto *arena = static_cast<CacheBlockState *>(std::calloc(
        blockCount > 0 ? blockCount : 1, sizeof(CacheBlockState)));
    panicIfNot(arena != nullptr,
               "InfiniteCache: cannot allocate an arena of ",
               blockCount, " blocks");
    states.reset(arena);
}

} // namespace dirsim
