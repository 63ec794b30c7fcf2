#include "protocols/berkeley.hh"

#include "common/logging.hh"

namespace dirsim
{

Berkeley::Berkeley(unsigned num_caches_arg,
                   const BlockSpace &blocks_arg,
                   const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory)
{
}

void
Berkeley::handleReadMiss(CacheId cache, BlockNum block,
                         const Others &others, bool first)
{
    if (others.anyDirty) {
        // The owner supplies the block cache-to-cache; memory is NOT
        // updated and the owner keeps ownership in the shared state.
        ++opCounts.cacheSupplies;
        setState(others.dirtyOwner, block, stOwnedShared);
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stValid);
}

void
Berkeley::handleWriteHit(CacheId cache, BlockNum block,
                         CacheBlockState state)
{
    if (state == stOwnedExcl) {
        // Exclusive ownership is known locally: no bus traffic and,
        // unlike Dir0B, no directory probe either.
        eventCounts.add(EventType::WhBlkDrty);
        return;
    }
    // Valid or owned-shared: a bus invalidation claims exclusivity.
    eventCounts.add(EventType::WhBlkCln);
    const Others others = classifyOthers(cache, block);
    sampleCleanWrite(others.numOthers);
    ++opCounts.broadcastInvals;
    ++opCounts.busTransactions;
    invalidateHolders(cache, block);
    setState(cache, block, stOwnedExcl);
}

void
Berkeley::handleWriteMiss(CacheId cache, BlockNum block,
                          const Others &others, bool first)
{
    if (others.anyDirty) {
        // Owner supplies the block; the write-for-invalidation
        // transaction also removes every other copy.
        ++opCounts.cacheSupplies;
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first) {
        ++opCounts.broadcastInvals;
        ++opCounts.busTransactions;
    }
    invalidateHolders(cache, block);
    install(cache, block, stOwnedExcl);
}

void
Berkeley::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    const SharerSet sharers = holders(block);
    sharers.forEach([&](CacheId holder) {
        if (cacheState(holder, block) == stOwnedExcl) {
            panicIfNot(sharers.count() == 1,
                       "Berkeley: exclusively-owned block ", block,
                       " has ", sharers.count(), " holders");
        }
    });
}

} // namespace dirsim
