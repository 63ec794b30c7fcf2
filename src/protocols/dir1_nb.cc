#include "protocols/dir1_nb.hh"

#include "common/logging.hh"

namespace dirsim
{

Dir1NB::Dir1NB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
               const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory,
                        OracleStates{stClean, stDirty}),
      dir(1, blocks_arg.count)
{
}

void
Dir1NB::onEviction(CacheId cache, BlockNum block, CacheBlockState)
{
    dir.entry(block).removeSharer(cache);
}

void
Dir1NB::displace(BlockNum block, const Others &others)
{
    if (others.numOthers == 0)
        return;
    panicIfNot(others.numOthers == 1,
               "Dir1NB found ", others.numOthers, " holders of block ",
               block);
    const CacheId holder =
        others.anyDirty ? others.dirtyOwner : others.anyHolder;
    ++opCounts.invalMsgs;
    if (others.anyDirty)
        ++opCounts.dirtySupplies; // write-back supplies the data
    invalidateIn(holder, block);
    dir.entry(block).removeSharer(holder);
}

void
Dir1NB::takeOwnership(CacheId cache, BlockNum block)
{
    const auto outcome = dir.entry(block).addSharer(cache);
    panicIfNot(outcome == LimitedAddOutcome::Recorded,
               "Dir1NB directory pointer was not free");
}

void
Dir1NB::handleReadMiss(CacheId cache, BlockNum block,
                       const Others &others, bool first)
{
    displace(block, others);
    if (!first) {
        // A clean remote copy (or no copy) is supplied by memory; a
        // dirty copy arrives via the displacing write-back.
        if (!others.anyDirty)
            ++opCounts.memSupplies;
        ++opCounts.busTransactions;
    }
    install(cache, block, stClean);
    takeOwnership(cache, block);
}

void
Dir1NB::handleWriteHit(CacheId cache, BlockNum block,
                       CacheBlockState state)
{
    // The sole holder writes: no directory interaction is needed since
    // the cache itself tracks dirtiness (the dirty data is found via
    // the directory pointer on a later miss).
    if (state == stDirty) {
        eventCounts.add(EventType::WhBlkDrty);
        return;
    }
    eventCounts.add(EventType::WhBlkCln);
    setState(cache, block, stDirty);
}

void
Dir1NB::handleWriteMiss(CacheId cache, BlockNum block,
                        const Others &others, bool first)
{
    displace(block, others);
    if (!first) {
        if (!others.anyDirty)
            ++opCounts.memSupplies;
        ++opCounts.busTransactions;
    }
    install(cache, block, stDirty);
    takeOwnership(cache, block);
}

void
Dir1NB::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    const SharerSet sharers = holders(block);
    panicIfNot(sharers.count() <= 1,
               "Dir1NB: block ", block, " resides in ", sharers.count(),
               " caches");
    const ConstLimitedEntry entry = dir.entry(block);
    if (sharers.count() == 1) {
        panicIfNot(entry.pointsTo(sharers.first()),
                   "Dir1NB: directory pointer disagrees with the caches "
                   "for block ", block);
    } else {
        panicIfNot(entry.pointerCount() == 0,
                   "Dir1NB: dangling directory pointer for block ", block);
    }
}

} // namespace dirsim
