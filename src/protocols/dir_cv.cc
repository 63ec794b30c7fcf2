#include "protocols/dir_cv.hh"

#include "common/logging.hh"

namespace dirsim
{

DirCV::DirCV(unsigned num_caches_arg, const BlockSpace &blocks_arg,
             unsigned region_size_arg, const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory,
                        OracleStates{stClean, stDirty}),
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

unsigned
DirCV::dirtyProbeMsgs(BlockNum block) const
{
    if (dir.regionSize() == 0)
        return 1;
    return dir.entry(block).supersetSize();
}

void
DirCV::invalidateSuperset(CacheId keeper, BlockNum block, bool costed)
{
    CoarseVectorDirectory::Entry entry = dir.entry(block);
    // One message per denoted cache: holders are invalidated, the
    // spurious members of the superset cost a wasted message each.
    if (costed)
        opCounts.invalMsgs +=
            entry.supersetSize() - (entry.denotes(keeper) ? 1 : 0);
    CacheIdList sharers;
    snapshotHolders(block, sharers);
    for (const CacheId holder : sharers) {
        if (holder != keeper && entry.denotes(holder))
            invalidateIn(holder, block);
    }
    entry.clear();
    if (keeper != invalidCacheId)
        entry.add(keeper);
}

void
DirCV::handleReadMiss(CacheId cache, BlockNum block,
                      const Others &others, bool first)
{
    CoarseVectorDirectory::Entry entry = dir.entry(block);
    if (others.anyDirty) {
        // Ternary: dirty implies the last write reset the code to
        // exactly the owner, so the write-back request is a single
        // message. Region mode only narrows the owner to its region,
        // so the request goes to every region member.
        if (!first) {
            opCounts.invalMsgs += dirtyProbeMsgs(block);
            ++opCounts.dirtySupplies;
        }
        setState(others.dirtyOwner, block, stClean);
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stClean);
    entry.add(cache);
}

void
DirCV::handleWriteHit(CacheId cache, BlockNum block,
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
    invalidateSuperset(cache, block, /* costed */ true);
    setState(cache, block, stDirty);
}

void
DirCV::handleWriteMiss(CacheId cache, BlockNum block,
                       const Others &others, bool first)
{
    CoarseVectorDirectory::Entry entry = dir.entry(block);
    if (others.anyDirty) {
        if (!first) {
            opCounts.invalMsgs += dirtyProbeMsgs(block);
            ++opCounts.dirtySupplies;
        }
        invalidateIn(others.dirtyOwner, block);
        entry.clear();
    } else if (others.numOthers > 0) {
        if (!first)
            sampleCleanWrite(others.numOthers);
        invalidateSuperset(invalidCacheId, block, !first);
        if (!first)
            ++opCounts.memSupplies;
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stDirty);
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
    CoherenceProtocol::checkInvariants(block);
    const SharerSet sharers = holders(block);
    const CoarseVectorDirectory::ConstEntry entry = dir.entry(block);
    // The defining property: the code always denotes a superset of
    // the true holders.
    panicIfNot(entry.decode().isSupersetOf(sharers),
               "DirCV: code is not a superset for block ", block);
    const CacheId owner = dirtyHolder(block);
    if (owner == invalidCacheId)
        return;
    panicIfNot(sharers.count() == 1,
               "DirCV: dirty block ", block, " has ", sharers.count(),
               " sharers");
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
