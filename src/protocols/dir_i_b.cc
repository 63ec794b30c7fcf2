#include "protocols/dir_i_b.hh"

#include "common/logging.hh"

namespace dirsim
{

DirIB::DirIB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
             unsigned num_pointers_arg, const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory,
                        OracleStates{stClean, stDirty}),
      dir(num_pointers_arg, /* allow_broadcast */ true, blocks_arg.count)
{
}

void
DirIB::onEviction(CacheId cache, BlockNum block, CacheBlockState state)
{
    // Replacement hint: while the entry is exact the freed pointer is
    // reclaimed. In broadcast mode there is nothing to update.
    LimitedEntry entry = dir.entry(block);
    entry.removeSharer(cache);
    if (isDirtyState(state))
        entry.setDirty(false);
}

std::string
DirIB::name() const
{
    return "Dir" + std::to_string(dir.pointerBudget()) + "B";
}

void
DirIB::recordSharer(BlockNum block, CacheId cache)
{
    const auto outcome = dir.entry(block).addSharer(cache);
    panicIfNot(outcome != LimitedAddOutcome::EvictionRequired,
               "DirIB entries never require eviction");
}

void
DirIB::invalidateOthers(CacheId keeper, BlockNum block, bool costed)
{
    LimitedEntry entry = dir.entry(block);
    CacheIdList sharers;
    snapshotHolders(block, sharers);
    const bool broadcast = entry.broadcastRequired();
    if (broadcast && costed)
        ++opCounts.broadcastInvals;
    for (const CacheId holder : sharers) {
        if (holder == keeper)
            continue;
        if (costed && !broadcast)
            ++opCounts.invalMsgs;
        invalidateIn(holder, block);
    }
    // After the invalidation the keeper is the only (known) sharer.
    entry.reset();
    if (keeper != invalidCacheId)
        recordSharer(block, keeper);
}

void
DirIB::handleReadMiss(CacheId cache, BlockNum block,
                      const Others &others, bool first)
{
    if (others.anyDirty) {
        // Dirty implies a single, pointed-to owner: a directed
        // write-back request; the flush supplies the requester.
        if (!first) {
            ++opCounts.invalMsgs;
            ++opCounts.dirtySupplies;
        }
        setState(others.dirtyOwner, block, stClean);
        dir.entry(block).setDirty(false);
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stClean);
    recordSharer(block, cache);
}

void
DirIB::handleWriteHit(CacheId cache, BlockNum block,
                      CacheBlockState state)
{
    if (state == stDirty) {
        eventCounts.add(EventType::WhBlkDrty);
        return;
    }
    eventCounts.add(EventType::WhBlkCln);
    const Others others = classifyOthers(cache, block);
    sampleCleanWrite(others.numOthers);
    ++opCounts.dirChecks;
    ++opCounts.busTransactions;
    invalidateOthers(cache, block, /* costed */ true);
    setState(cache, block, stDirty);
    dir.entry(block).setDirty(true);
}

void
DirIB::handleWriteMiss(CacheId cache, BlockNum block,
                       const Others &others, bool first)
{
    if (others.anyDirty) {
        if (!first) {
            ++opCounts.invalMsgs;
            ++opCounts.dirtySupplies;
        }
        invalidateIn(others.dirtyOwner, block);
        dir.entry(block).reset();
    } else if (others.numOthers > 0) {
        if (!first)
            sampleCleanWrite(others.numOthers);
        invalidateOthers(invalidCacheId, block, !first);
        if (!first)
            ++opCounts.memSupplies;
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stDirty);
    recordSharer(block, cache);
    dir.entry(block).setDirty(true);
}

void
DirIB::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    const SharerSet sharers = holders(block);
    const ConstLimitedEntry entry = dir.entry(block);
    if (!entry.broadcastRequired()) {
        // Exact mode: pointers must equal the true sharer set.
        panicIfNot(entry.pointerCount() == sharers.count(),
                   name(), ": pointer count disagrees for block ", block);
        for (const CacheId cache : entry.pointerList())
            panicIfNot(sharers.contains(cache),
                       name(), ": stale pointer for block ", block);
    }
    if (entry.dirty())
        panicIfNot(sharers.count() == 1,
                   name(), ": dirty block ", block, " has ",
                   sharers.count(), " sharers");
}

} // namespace dirsim
