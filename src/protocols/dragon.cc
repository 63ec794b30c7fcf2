#include "protocols/dragon.hh"

#include "common/logging.hh"

namespace dirsim
{

Dragon::Dragon(unsigned num_caches_arg,
               const BlockSpace &blocks_arg,
               const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory)
{
}

void
Dragon::applyUpdate(CacheId writer, BlockNum block)
{
    CacheIdList sharers;
    snapshotHolders(block, sharers);
    for (const CacheId holder : sharers) {
        if (holder == writer)
            continue;
        // Copies are updated in place; a previous owner loses
        // ownership to the writer.
        setState(holder, block, stSharedClean);
    }
}

void
Dragon::demoteToShared(CacheId requester, BlockNum block)
{
    CacheIdList sharers;
    snapshotHolders(block, sharers);
    for (const CacheId holder : sharers) {
        if (holder == requester)
            continue;
        const CacheBlockState state = cacheState(holder, block);
        if (state == stExclusive)
            setState(holder, block, stSharedClean);
        else if (state == stDirty)
            setState(holder, block, stSharedDirty);
    }
}

void
Dragon::handleReadMiss(CacheId cache, BlockNum block,
                       const Others &others, bool first)
{
    if (others.numOthers > 0) {
        // The shared line is pulled; a holding cache supplies the
        // block (memory is not updated: a dirty owner keeps
        // ownership in the shared-dirty state).
        ++opCounts.cacheSupplies;
        demoteToShared(cache, block);
        install(cache, block, stSharedClean);
    } else {
        if (!first)
            ++opCounts.memSupplies;
        install(cache, block, stExclusive);
    }
    if (!first)
        ++opCounts.busTransactions;
}

void
Dragon::handleWriteHit(CacheId cache, BlockNum block,
                       CacheBlockState state)
{
    const Others others = classifyOthers(cache, block);
    if (others.numOthers > 0) {
        // Broadcast the written word; all sharers update in place.
        eventCounts.add(EventType::WhDistrib);
        ++opCounts.writeUpdates;
        ++opCounts.busTransactions;
        applyUpdate(cache, block);
        setState(cache, block, stSharedDirty);
    } else {
        eventCounts.add(EventType::WhLocal);
        (void)state;
        setState(cache, block, stDirty);
    }
}

void
Dragon::handleWriteMiss(CacheId cache, BlockNum block,
                        const Others &others, bool first)
{
    if (others.numOthers > 0) {
        // Fetch from a holding cache, then distribute the write.
        ++opCounts.cacheSupplies;
        ++opCounts.writeUpdates;
        install(cache, block, stSharedDirty);
        applyUpdate(cache, block);
    } else {
        if (!first)
            ++opCounts.memSupplies;
        install(cache, block, stDirty);
    }
    if (!first)
        ++opCounts.busTransactions;
}

void
Dragon::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    const SharerSet sharers = holders(block);
    sharers.forEach([&](CacheId holder) {
        const CacheBlockState state = cacheState(holder, block);
        if (state == stExclusive || state == stDirty) {
            panicIfNot(sharers.count() == 1,
                       "Dragon: exclusive-state block ", block,
                       " has ", sharers.count(), " holders");
        }
    });
}

} // namespace dirsim
