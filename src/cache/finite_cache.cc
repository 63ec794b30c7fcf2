#include "cache/finite_cache.hh"

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
    sets.resize(cfg.numSets());
}

FiniteCache::Set &
FiniteCache::setFor(BlockNum block)
{
    return sets[blocks.label(block) & (sets.size() - 1)];
}

const FiniteCache::Set &
FiniteCache::setFor(BlockNum block) const
{
    return sets[blocks.label(block) & (sets.size() - 1)];
}

CacheBlockState
FiniteCache::lookup(BlockNum block) const
{
    for (const auto &line : setFor(block)) {
        if (line.block == block)
            return line.state;
    }
    return stateNotPresent;
}

bool
FiniteCache::set(BlockNum block, CacheBlockState state)
{
    panicIfNot(state != stateNotPresent,
               "FiniteCache::set with the reserved not-present state");
    Set &s = setFor(block);
    for (auto it = s.begin(); it != s.end(); ++it) {
        if (it->block == block) {
            it->state = state;
            s.splice(s.begin(), s, it); // promote to MRU
            return false;
        }
    }
    if (s.size() == cfg.ways) {
        const Line victim = s.back();
        s.pop_back();
        --resident;
        ++evicted;
        if (onEvict)
            onEvict(victim.block, victim.state);
    }
    s.push_front(Line{block, state});
    ++resident;
    return true;
}

CacheBlockState
FiniteCache::invalidate(BlockNum block)
{
    Set &s = setFor(block);
    for (auto it = s.begin(); it != s.end(); ++it) {
        if (it->block == block) {
            const CacheBlockState old = it->state;
            s.erase(it);
            --resident;
            return old;
        }
    }
    return stateNotPresent;
}

void
FiniteCache::clear()
{
    for (auto &s : sets)
        s.clear();
    resident = 0;
}

void
FiniteCache::forEach(
    const std::function<void(BlockNum, CacheBlockState)> &fn) const
{
    for (const auto &s : sets) {
        for (const auto &line : s)
            fn(line.block, line.state);
    }
}

void
FiniteCache::touch(BlockNum block)
{
    Set &s = setFor(block);
    for (auto it = s.begin(); it != s.end(); ++it) {
        if (it->block == block) {
            s.splice(s.begin(), s, it);
            return;
        }
    }
}

} // namespace dirsim
