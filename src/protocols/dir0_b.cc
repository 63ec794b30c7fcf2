#include "protocols/dir0_b.hh"

#include "common/logging.hh"

namespace dirsim
{

template class DirectoryProtocol<Dir0B>;

Dir0B::Dir0B(unsigned num_caches_arg, const BlockSpace &blocks_arg,
             const CacheFactory &factory)
    : DirectoryProtocol(num_caches_arg, blocks_arg, factory),
      dir(blocks_arg.count)
{
}

void
Dir0B::onEviction(CacheId, BlockNum block, CacheBlockState state)
{
    // The two-bit directory holds no per-cache information, so clean
    // evictions are silent (the directory may over-approximate the
    // sharer count afterwards, which only wastes broadcasts). A dirty
    // eviction is observed through its write-back.
    if (isDirtyState(state))
        dir.makeUncached(block);
}

void
Dir0B::reachOwner(BlockNum)
{
    // The directory knows only "dirty in exactly one cache": a
    // broadcast request finds the owner.
    ++opCounts.broadcastInvals;
}

void
Dir0B::invalidateCopies(CacheId keeper, BlockNum block)
{
    // Every invalidation is a broadcast, except that a writing holder
    // whose block is not clean-many has the only copy.
    if (keeper != invalidCacheId
        && dir.state(block) != TwoBitState::CleanMany) {
        panicIfNot(holderCount(block) == 1,
                   "Dir0B: clean-one state with other holders");
        return;
    }
    ++opCounts.broadcastInvals;
    invalidateHolders(keeper, block);
}

void
Dir0B::recordFill(CacheId, BlockNum block, const Others &others)
{
    if (others.anyDirty)
        dir.setState(block, TwoBitState::CleanMany);
    else
        dir.addCleanCopy(block);
}

void
Dir0B::recordWrite(CacheId, BlockNum block, const Others &)
{
    dir.makeDirty(block);
}

void
Dir0B::checkInvariants(BlockNum block) const
{
    DirectoryProtocol::checkInvariants(block);
    const SharerSet sharers = holders(block);
    unsigned dirty = 0;
    sharers.forEach([&](CacheId holder) {
        dirty += isDirtyState(cacheState(holder, block)) ? 1 : 0;
    });

    switch (dir.state(block)) {
      case TwoBitState::NotCached:
        panicIfNot(sharers.empty(),
                   "Dir0B: not-cached block ", block, " has holders");
        break;
      case TwoBitState::CleanOne:
        // Finite caches may have silently dropped the copy; the
        // directory is then a (correct) over-approximation.
        panicIfNot(sharers.count() <= 1 && dirty == 0,
                   "Dir0B: clean-one state wrong for block ", block);
        panicIfNot(finiteCaches() || sharers.count() == 1,
                   "Dir0B: clean-one block ", block, " has no holder");
        break;
      case TwoBitState::CleanMany:
        // "Unknown number of caches": must be >= 1 with infinite
        // caches, which never silently drop copies.
        panicIfNot(dirty == 0,
                   "Dir0B: clean-many state wrong for block ", block);
        panicIfNot(finiteCaches() || sharers.count() >= 1,
                   "Dir0B: clean-many block ", block, " has no holder");
        break;
      case TwoBitState::DirtyOne:
        panicIfNot(sharers.count() == 1 && dirty == 1,
                   "Dir0B: dirty-one state wrong for block ", block);
        break;
    }
}

} // namespace dirsim
