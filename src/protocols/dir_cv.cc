#include "protocols/dir_cv.hh"

#include "common/logging.hh"

namespace dirsim
{

template class DirectoryProtocol<DirCV>;

DirCV::DirCV(unsigned num_caches_arg, const BlockSpace &blocks_arg,
             unsigned region_size_arg, const CacheFactory &factory)
    : DirectoryProtocol(num_caches_arg, blocks_arg, factory),
      dir(num_caches_arg, region_size_arg, blocks_arg.count)
{
}

std::string
DirCV::name() const
{
    if (dir.regionSize() == 0)
        return "DirCV";
    return "DirCVr" + std::to_string(dir.regionSize());
}

void
DirCV::reachOwner(BlockNum block)
{
    // Ternary: the last write reset the code to exactly the owner, so
    // the request is a single message. Region mode only narrows the
    // owner to its region, so the request goes to every member.
    opCounts.invalMsgs +=
        dir.regionSize() == 0 ? 1 : dir.entry(block).supersetSize();
}

void
DirCV::invalidateCopies(CacheId keeper, BlockNum block)
{
    // Sequential messages to the denoted superset but the keeper: the
    // holders among it are invalidated (the code denotes every one),
    // its spurious members cost a wasted message each.
    const CoarseVectorDirectory::Entry entry = dir.entry(block);
    opCounts.invalMsgs +=
        entry.supersetSize() - (entry.denotes(keeper) ? 1 : 0);
    invalidateHolders(keeper, block);
}

void
DirCV::recordFill(CacheId cache, BlockNum block, const Others &)
{
    dir.entry(block).add(cache);
}

void
DirCV::recordWrite(CacheId cache, BlockNum block, const Others &)
{
    CoarseVectorDirectory::Entry entry = dir.entry(block);
    entry.clear();
    entry.add(cache);
}

void
DirCV::onEviction(CacheId, BlockNum block, CacheBlockState state)
{
    // Neither code can subtract a member, so clean evictions leave
    // the (still correct) superset in place. A dirty eviction implies
    // the code denoted only the evicting cache (ternary) or its
    // region; the write-back resets it.
    if (isDirtyState(state))
        dir.entry(block).clear();
}

void
DirCV::checkInvariants(BlockNum block) const
{
    DirectoryProtocol::checkInvariants(block);
    const CoarseVectorDirectory::ConstEntry entry = dir.entry(block);
    // The defining property: the code always denotes a superset of
    // the true holders.
    panicIfNot(entry.decode().isSupersetOf(holders(block)),
               "DirCV: code is not a superset for block ", block);
    const CacheId owner = dirtyHolder(block);
    if (owner == invalidCacheId)
        return;
    if (dir.regionSize() == 0) {
        panicIfNot(entry.decode().isOnly(owner),
                   "DirCV: dirty block ", block, " has an inexact code");
    } else {
        // Region mode cannot be exact: the tightest legal code is the
        // owner's region alone.
        panicIfNot(entry.flaggedRegions() == 1,
                   "DirCV: dirty block ", block, " flags ",
                   entry.flaggedRegions(), " regions");
    }
}

} // namespace dirsim
