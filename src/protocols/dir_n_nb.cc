#include "protocols/dir_n_nb.hh"

#include "common/logging.hh"

namespace dirsim
{

DirNNB::DirNNB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
               const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory,
                        OracleStates{stClean, stDirty})
{
}

void
DirNNB::invalidateOthers(CacheId keeper, BlockNum block, bool costed)
{
    CacheIdList victims;
    snapshotHolders(block, victims);
    for (const CacheId victim : victims) {
        if (victim == keeper)
            continue;
        if (costed)
            ++opCounts.invalMsgs; // one directed message per copy
        invalidateIn(victim, block);
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
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stClean);
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
}

void
DirNNB::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    // Every write invalidates the other copies, so a dirty block has
    // exactly one holder.
    panicIfNot(dirtyHolder(block) == invalidCacheId
                   || holderCount(block) == 1,
               "DirNNB: dirty block ", block, " has ", holderCount(block),
               " holders");
}

} // namespace dirsim
