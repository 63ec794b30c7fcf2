#include "cache/finite_cache.hh"

#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace dirsim
{

std::uint64_t
FiniteCacheConfig::numSets() const
{
    return capacityBytes / blockBytes / ways;
}

void
FiniteCacheConfig::check() const
{
    checkBlockSize(blockBytes);
    fatalIf(capacityBytes == 0 || !isPowerOfTwo(capacityBytes),
            "finite cache capacity must be a non-zero power of two");
    fatalIf(capacityBytes > maxCapacityBytes, "finite cache capacity ",
            capacityBytes, " bytes exceeds the limit of ",
            maxCapacityBytes, " bytes (2^32)");
    fatalIf(ways == 0, "finite cache must have at least one way");
    const std::uint64_t lines = capacityBytes / blockBytes;
    fatalIf(lines == 0 || lines % ways != 0,
            "capacity ", capacityBytes, "B / block ", blockBytes,
            "B is not divisible into ", ways, " ways");
    fatalIf(!isPowerOfTwo(numSets()),
            "finite cache set count must be a power of two");
}

FiniteCache::FiniteCache(const FiniteCacheConfig &config_arg,
                         const BlockSpace &blocks_arg)
    : cfg(config_arg), blocks(blocks_arg)
{
    cfg.check();
    setMask = cfg.numSets() - 1;
    lines = callocArena<Line>(cfg.capacityBytes / cfg.blockBytes);
}

unsigned
FiniteCache::find(const Line *set, BlockNum block) const
{
    unsigned way = 0;
    while (way < cfg.ways && set[way].state != stateNotPresent
           && set[way].block != block)
        ++way;
    return way;
}

CacheBlockState
FiniteCache::lookup(BlockNum block) const
{
    const Line *set = setFor(block);
    const unsigned way = find(set, block);
    return way < cfg.ways ? set[way].state : stateNotPresent;
}

CacheBlockState
FiniteCache::access(BlockNum block)
{
    Line *set = setFor(block);
    const unsigned way = find(set, block);
    if (way == cfg.ways || set[way].state == stateNotPresent)
        return stateNotPresent;
    const Line hit = set[way];
    std::memmove(set + 1, set, way * sizeof(Line)); // promote to MRU
    set[0] = hit;
    return hit.state;
}

CacheLine
FiniteCache::set(BlockNum block, CacheBlockState state)
{
    panicIfNot(state != stateNotPresent,
               "FiniteCache::set with the reserved not-present state");
    if (block >> 32 != 0) [[unlikely]]
        panic("FiniteCache::set: block ", block, " exceeds 32 bits");
    Line *set = setFor(block);
    unsigned way = find(set, block);
    CacheLine victim;
    if (way == cfg.ways) {
        // A full set without the block: its LRU line makes room.
        way = cfg.ways - 1;
        victim = {set[way].block, set[way].state};
        ++evicted;
    } else if (set[way].state == stateNotPresent) {
        ++resident;
    }
    std::memmove(set + 1, set, way * sizeof(Line)); // promote to MRU
    set[0] = Line{static_cast<std::uint32_t>(block), state};
    return victim;
}

CacheBlockState
FiniteCache::invalidate(BlockNum block)
{
    Line *set = setFor(block);
    const unsigned way = find(set, block);
    if (way == cfg.ways || set[way].state == stateNotPresent)
        return stateNotPresent;
    const CacheBlockState old = set[way].state;
    // Close the gap; the set's last line becomes empty.
    std::memmove(set + way, set + way + 1,
                 (cfg.ways - 1 - way) * sizeof(Line));
    set[cfg.ways - 1] = Line{};
    --resident;
    return old;
}

void
FiniteCache::clear()
{
    // Fresh calloc instead of a fill: the zeroing stays lazy.
    lines = callocArena<Line>(cfg.capacityBytes / cfg.blockBytes);
    resident = 0;
}

void
FiniteCache::forEach(
    const std::function<void(BlockNum, CacheBlockState)> &fn) const
{
    const std::size_t count = cfg.capacityBytes / cfg.blockBytes;
    for (std::size_t i = 0; i < count; ++i) {
        if (lines[i].state != stateNotPresent)
            fn(lines[i].block, lines[i].state);
    }
}

} // namespace dirsim
