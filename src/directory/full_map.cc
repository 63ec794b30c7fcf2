#include "directory/full_map.hh"

#include "common/logging.hh"

namespace dirsim
{

FullMapDirectory::FullMapDirectory(unsigned num_caches_arg,
                                   std::uint64_t block_count)
    : caches(num_caches_arg), dirtyBits(block_count, 0)
{
    fatalIf(caches == 0, "directory needs at least one cache");
    sharers.reset(caches, block_count);
}

void
FullMapDirectory::addSharer(BlockNum block, CacheId cache)
{
    sharers.add(block, cache);
}

void
FullMapDirectory::removeSharer(BlockNum block, CacheId cache)
{
    sharers.remove(block, cache);
}

bool
FullMapDirectory::isSharer(BlockNum block, CacheId cache) const
{
    return sharers.contains(block, cache);
}

unsigned
FullMapDirectory::sharerCount(BlockNum block) const
{
    return sharers.count(block);
}

bool
FullMapDirectory::dirty(BlockNum block) const
{
    panicIfNot(block < dirtyBits.size(),
               "FullMapDirectory: block ", block,
               " outside the arena of ", dirtyBits.size(), " blocks");
    return dirtyBits[block] != 0;
}

void
FullMapDirectory::setDirty(BlockNum block, bool dirty_arg)
{
    panicIfNot(block < dirtyBits.size(),
               "FullMapDirectory: block ", block,
               " outside the arena of ", dirtyBits.size(), " blocks");
    dirtyBits[block] = dirty_arg ? 1 : 0;
}

void
FullMapDirectory::appendSharers(BlockNum block, CacheIdList &out) const
{
    sharers.appendTo(block, out);
}

SharerSet
FullMapDirectory::sharerSnapshot(BlockNum block) const
{
    return sharers.snapshot(block);
}

} // namespace dirsim
