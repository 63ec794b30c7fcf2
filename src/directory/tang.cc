#include "directory/tang.hh"

#include "common/logging.hh"

namespace dirsim
{

TangDirectory::TangDirectory(unsigned num_caches_arg,
                             std::uint64_t block_count)
{
    fatalIf(num_caches_arg == 0, "directory needs at least one cache");
    dupTags.assign(num_caches_arg,
                   std::vector<std::uint8_t>(block_count, tagAbsent));
}

void
TangDirectory::recordFill(CacheId cache, BlockNum block)
{
    panicIfNot(cache < dupTags.size(), "cache id out of range");
    panicIfNot(block < dupTags[cache].size(),
               "TangDirectory: block ", block, " outside the arena of ",
               dupTags[cache].size(), " blocks");
    dupTags[cache][block] = tagClean;
}

void
TangDirectory::recordDirty(CacheId cache, BlockNum block)
{
    panicIfNot(cache < dupTags.size(), "cache id out of range");
    panicIfNot(block < dupTags[cache].size()
                   && dupTags[cache][block] != tagAbsent,
               "recordDirty for a block the cache does not hold");
    dupTags[cache][block] = tagDirty;
}

void
TangDirectory::recordClean(CacheId cache, BlockNum block)
{
    panicIfNot(cache < dupTags.size(), "cache id out of range");
    panicIfNot(block < dupTags[cache].size()
                   && dupTags[cache][block] != tagAbsent,
               "recordClean for a block the cache does not hold");
    dupTags[cache][block] = tagClean;
}

void
TangDirectory::recordInvalidate(CacheId cache, BlockNum block)
{
    panicIfNot(cache < dupTags.size(), "cache id out of range");
    if (block < dupTags[cache].size())
        dupTags[cache][block] = tagAbsent;
}

TangDirectory::SearchResult
TangDirectory::search(BlockNum block) const
{
    SearchResult result;
    result.holders = SharerSet(numCaches());
    for (CacheId cache = 0; cache < dupTags.size(); ++cache) {
        if (block >= dupTags[cache].size())
            continue;
        const std::uint8_t slot = dupTags[cache][block];
        if (slot == tagAbsent)
            continue;
        result.holders.add(cache);
        if (slot == tagDirty) {
            panicIfNot(result.dirtyOwner == invalidCacheId,
                       "two caches hold block ", block, " dirty");
            result.dirtyOwner = cache;
        }
    }
    return result;
}

} // namespace dirsim
