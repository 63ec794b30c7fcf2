#include "protocols/yen_fu.hh"

#include "common/logging.hh"

namespace dirsim
{

YenFu::YenFu(unsigned num_caches_arg, const BlockSpace &blocks_arg,
             const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory)
{
}

void
YenFu::handleReadMiss(CacheId cache, BlockNum block,
                      const Others &others, bool first)
{
    if (others.anyDirty) {
        // Directed write-back request, as in Censier & Feautrier. The
        // owner's single bit is cleared by the same transaction.
        ++opCounts.invalMsgs;
        ++opCounts.dirtySupplies;
        setState(others.dirtyOwner, block, stClean);
        install(cache, block, stClean);
    } else if (others.numOthers == 0) {
        if (!first)
            ++opCounts.memSupplies;
        install(cache, block, stCleanSingle);
    } else {
        ++opCounts.memSupplies;
        // A second copy appears: the previous sole holder's single
        // bit must be cleared, costing a maintenance signal.
        if (others.numOthers == 1
            && cacheState(others.anyHolder, block) == stCleanSingle) {
            ++opCounts.writeUpdates;
            setState(others.anyHolder, block, stClean);
        }
        install(cache, block, stClean);
    }
    if (!first)
        ++opCounts.busTransactions;
}

void
YenFu::handleWriteHit(CacheId cache, BlockNum block,
                      CacheBlockState state)
{
    if (state == stDirty) {
        eventCounts.add(EventType::WhBlkDrty);
        return;
    }
    eventCounts.add(EventType::WhBlkCln);

    if (state == stCleanSingle) {
        // The Yen & Fu saving: the write proceeds immediately; only a
        // background notification updates the directory's dirty bit
        // (a bus access, but no directory wait).
        sampleCleanWrite(0);
        ++opCounts.writeUpdates;
        ++opCounts.busTransactions;
        setState(cache, block, stDirty);
        return;
    }

    // Shared clean copy: identical to Censier & Feautrier.
    const Others others = classifyOthers(cache, block);
    sampleCleanWrite(others.numOthers);
    ++opCounts.dirChecks;
    ++opCounts.busTransactions;
    opCounts.invalMsgs += invalidateHolders(cache, block);
    setState(cache, block, stDirty);
}

void
YenFu::handleWriteMiss(CacheId cache, BlockNum block,
                       const Others &others, bool first)
{
    if (others.anyDirty) {
        ++opCounts.dirtySupplies;
        ++opCounts.invalMsgs;
        invalidateIn(others.dirtyOwner, block);
    } else if (others.numOthers > 0) {
        sampleCleanWrite(others.numOthers);
        opCounts.invalMsgs += invalidateHolders(cache, block);
        ++opCounts.memSupplies;
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stDirty);
}

void
YenFu::onEviction(CacheId, BlockNum block, CacheBlockState)
{
    // If exactly one clean copy survives, its single bit is set: the
    // maintenance signal the paper charges the scheme for.
    if (holderCount(block) != 1)
        return;
    const CacheId survivor = firstHolder(block);
    if (cacheState(survivor, block) != stClean)
        return;
    ++opCounts.writeUpdates;
    setState(survivor, block, stCleanSingle);
}

void
YenFu::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    const SharerSet sharers = holders(block);
    // The single-bit semantics: set iff the sole copy.
    sharers.forEach([&](CacheId holder) {
        const CacheBlockState state = cacheState(holder, block);
        if (state == stCleanSingle || state == stDirty) {
            panicIfNot(sharers.count() == 1,
                       "YenFu: single/dirty block ", block, " has ",
                       sharers.count(), " holders");
        }
        if (sharers.count() == 1) {
            panicIfNot(state != stClean,
                       "YenFu: sole holder of block ", block,
                       " is missing its single bit");
        }
    });
}

} // namespace dirsim
