#include "protocols/dir_i_nb.hh"

#include "common/logging.hh"

namespace dirsim
{

DirINB::DirINB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
               unsigned num_pointers_arg, const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory,
                        OracleStates{stClean, stDirty}),
      dir(num_pointers_arg, /* allow_broadcast */ false, blocks_arg.count)
{
}

void
DirINB::onEviction(CacheId cache, BlockNum block, CacheBlockState state)
{
    LimitedEntry entry = dir.entry(block);
    entry.removeSharer(cache);
    if (isDirtyState(state))
        entry.setDirty(false);
}

std::string
DirINB::name() const
{
    return "Dir" + std::to_string(dir.pointerBudget()) + "NB";
}

void
DirINB::recordSharer(BlockNum block, CacheId cache, bool costed)
{
    LimitedEntry entry = dir.entry(block);
    CacheId victim = invalidCacheId;
    auto outcome = entry.addSharer(cache, &victim);
    if (outcome == LimitedAddOutcome::EvictionRequired) {
        // Free a pointer by invalidating the oldest copy. This is the
        // extra cost Dir_i NB pays for never broadcasting.
        if (costed)
            ++opCounts.overflowInvals;
        invalidateIn(victim, block);
        entry.removeSharer(victim);
        outcome = entry.addSharer(cache, &victim);
    }
    if (outcome != LimitedAddOutcome::Recorded) [[unlikely]]
        panic(name(), ": sharer could not be recorded after eviction");
}

void
DirINB::invalidateOthers(CacheId keeper, BlockNum block, bool costed)
{
    LimitedEntry entry = dir.entry(block);
    // Snapshot: the loop removes pointers while it walks them.
    CacheIdList victims;
    for (const CacheId victim : entry.pointerList())
        victims.push(victim);
    for (const CacheId victim : victims) {
        if (victim == keeper)
            continue;
        if (costed)
            ++opCounts.invalMsgs;
        invalidateIn(victim, block);
        entry.removeSharer(victim);
    }
}

void
DirINB::handleReadMiss(CacheId cache, BlockNum block,
                       const Others &others, bool first)
{
    if (others.anyDirty) {
        if (!first) {
            ++opCounts.invalMsgs; // directed write-back request
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
    recordSharer(block, cache, !first);
}

void
DirINB::handleWriteHit(CacheId cache, BlockNum block,
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
DirINB::handleWriteMiss(CacheId cache, BlockNum block,
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
    recordSharer(block, cache, !first);
    dir.entry(block).setDirty(true);
}

void
DirINB::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    const SharerSet sharers = holders(block);
    panicIfNot(sharers.count() <= dir.pointerBudget(),
               name(), ": block ", block, " resides in ",
               sharers.count(), " caches, budget ",
               dir.pointerBudget());
    const ConstLimitedEntry entry = dir.entry(block);
    panicIfNot(!entry.broadcastRequired(),
               name(), ": no-broadcast entry in broadcast mode");
    panicIfNot(entry.pointerCount() == sharers.count(),
               name(), ": pointer count disagrees for block ", block);
    for (const CacheId cache : entry.pointerList())
        panicIfNot(sharers.contains(cache),
                   name(), ": stale pointer for block ", block);
}

} // namespace dirsim
