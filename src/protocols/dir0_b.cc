#include "protocols/dir0_b.hh"

#include "common/logging.hh"

namespace dirsim
{

Dir0B::Dir0B(unsigned num_caches_arg, const BlockSpace &blocks_arg,
             const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory,
                        OracleStates{stClean, stDirty}),
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
Dir0B::broadcastInvalidate(CacheId keeper, BlockNum block, bool costed)
{
    if (costed)
        ++opCounts.broadcastInvals;
    CacheIdList sharers;
    snapshotHolders(block, sharers);
    for (const CacheId holder : sharers) {
        if (holder != keeper)
            invalidateIn(holder, block);
    }
}

void
Dir0B::handleReadMiss(CacheId cache, BlockNum block,
                      const Others &others, bool first)
{
    if (others.anyDirty) {
        // The directory knows only "dirty in exactly one cache": a
        // broadcast write-back request finds the owner, which flushes;
        // memory and the requester receive the data together.
        if (!first) {
            ++opCounts.broadcastInvals; // the flush request broadcast
            ++opCounts.dirtySupplies;
        }
        setState(others.dirtyOwner, block, stClean);
        install(cache, block, stClean);
        dir.setState(block, TwoBitState::CleanMany);
    } else {
        if (!first)
            ++opCounts.memSupplies;
        install(cache, block, stClean);
        dir.addCleanCopy(block);
    }
    if (!first)
        ++opCounts.busTransactions;
}

void
Dir0B::handleWriteHit(CacheId cache, BlockNum block,
                      CacheBlockState state)
{
    if (state == stDirty) {
        eventCounts.add(EventType::WhBlkDrty);
        return;
    }
    eventCounts.add(EventType::WhBlkCln);
    const Others others = classifyOthers(cache, block);
    sampleCleanWrite(others.numOthers);

    // The write to a clean block must query the directory; this probe
    // cannot overlap a memory access (Table 5's "dir access" row).
    ++opCounts.dirChecks;
    ++opCounts.busTransactions;
    if (dir.state(block) == TwoBitState::CleanMany) {
        broadcastInvalidate(cache, block, /* costed */ true);
    } else {
        panicIfNot(others.numOthers == 0,
                   "Dir0B: clean-one state with other holders");
    }
    setState(cache, block, stDirty);
    dir.makeDirty(block);
}

void
Dir0B::handleWriteMiss(CacheId cache, BlockNum block,
                       const Others &others, bool first)
{
    if (others.anyDirty) {
        // Broadcast flush-and-invalidate; the owner's write-back
        // supplies the requester.
        if (!first) {
            ++opCounts.broadcastInvals;
            ++opCounts.dirtySupplies;
        }
        invalidateIn(others.dirtyOwner, block);
    } else if (others.numOthers > 0) {
        if (!first)
            sampleCleanWrite(others.numOthers);
        broadcastInvalidate(cache, block, !first);
        if (!first)
            ++opCounts.memSupplies;
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stDirty);
    dir.makeDirty(block);
}

void
Dir0B::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
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
