#include "protocols/dir_n_nb.hh"

#include "common/logging.hh"

namespace dirsim
{

DirNNB::DirNNB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
               const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory,
                        OracleStates{stClean, stDirty}),
      dir(num_caches_arg, blocks_arg.count)
{
}

void
DirNNB::onEviction(CacheId cache, BlockNum block, CacheBlockState state)
{
    dir.removeSharer(block, cache);
    if (isDirtyState(state))
        dir.setDirty(block, false);
}

void
DirNNB::invalidateOthers(CacheId keeper, BlockNum block, bool costed)
{
    CacheIdList victims;
    dir.appendSharers(block, victims);
    for (const CacheId victim : victims) {
        if (victim == keeper)
            continue;
        if (costed)
            ++opCounts.invalMsgs; // one directed message per copy
        invalidateIn(victim, block);
        dir.removeSharer(block, victim);
    }
}

void
DirNNB::handleReadMiss(CacheId cache, BlockNum block,
                       const Others &others, bool first)
{
    if (others.anyDirty) {
        // A directed write-back request reaches the owner; memory and
        // the requester receive the data in the same transfer.
        if (!first) {
            ++opCounts.invalMsgs;
            ++opCounts.dirtySupplies;
        }
        setState(others.dirtyOwner, block, stClean);
        dir.setDirty(block, false);
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stClean);
    dir.addSharer(block, cache);
}

void
DirNNB::handleWriteHit(CacheId cache, BlockNum block,
                       CacheBlockState state)
{
    if (state == stDirty) {
        eventCounts.add(EventType::WhBlkDrty);
        return; // already exclusive; proceeds without bus traffic
    }
    eventCounts.add(EventType::WhBlkCln);
    const Others others = classifyOthers(cache, block);
    sampleCleanWrite(others.numOthers);
    // The cache must notify the directory, which invalidates the
    // other copies one by one.
    ++opCounts.dirChecks;
    ++opCounts.busTransactions;
    invalidateOthers(cache, block, /* costed */ true);
    setState(cache, block, stDirty);
    dir.setDirty(block, true);
}

void
DirNNB::handleWriteMiss(CacheId cache, BlockNum block,
                        const Others &others, bool first)
{
    if (others.anyDirty) {
        // Flush the dirty copy to memory and invalidate it there.
        if (!first) {
            ++opCounts.dirtySupplies;
            ++opCounts.invalMsgs;
        }
        invalidateIn(others.dirtyOwner, block);
        dir.removeSharer(block, others.dirtyOwner);
    } else if (others.numOthers > 0) {
        if (!first)
            sampleCleanWrite(others.numOthers);
        invalidateOthers(cache, block, !first);
        if (!first)
            ++opCounts.memSupplies;
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stDirty);
    dir.addSharer(block, cache);
    dir.setDirty(block, true);
}

void
DirNNB::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    const SharerSet sharers = holders(block);
    panicIfNot(dir.sharerSnapshot(block) == sharers,
               "DirNNB: directory present bits disagree with the caches "
               "for block ", block);
    panicIfNot(!dir.dirty(block) || dir.sharerCount(block) <= 1,
               "DirNNB: dirty block ", block, " has multiple sharers");
    if (!sharers.empty()) {
        bool any_dirty = false;
        sharers.forEach([&](CacheId holder) {
            any_dirty |= isDirtyState(cacheState(holder, block));
        });
        panicIfNot(dir.dirty(block) == any_dirty,
                   "DirNNB: directory dirty bit stale for block ", block);
    }
}

} // namespace dirsim
