#include "protocols/dir_i_b.hh"

#include "common/logging.hh"

namespace dirsim
{

DirIB::DirIB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
             unsigned num_pointers_arg, const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory,
                        OracleStates{stClean, stDirty}),
      numPointers(num_pointers_arg)
{
    fatalIf(numPointers == 0,
            "Dir_0 B keeps no pointers: it is the two-bit directory "
            "(directory/two_bit.hh)");
    broadcastBits = callocArena<std::uint8_t>(blocks_arg.count);
}

std::string
DirIB::name() const
{
    return "Dir" + std::to_string(numPointers) + "B";
}

void
DirIB::invalidateOthers(CacheId keeper, BlockNum block, bool costed)
{
    CacheIdList sharers;
    snapshotHolders(block, sharers);
    const bool broadcast = broadcastBits[block] != 0;
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
    broadcastBits[block] = 0;
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
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stClean);
    // The pointer array overflows: only a broadcast reaches every
    // copy from now on.
    if (holderCount(block) > numPointers)
        broadcastBits[block] = 1;
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
        broadcastBits[block] = 0;
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
}

void
DirIB::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    const unsigned count = holderCount(block);
    // A clear bit means the i pointers still name every copy.
    panicIfNot(broadcastBits[block] != 0 || count <= numPointers,
               name(), ": block ", block, " has ", count,
               " holders and no broadcast bit");
    panicIfNot(dirtyHolder(block) == invalidCacheId || count == 1,
               name(), ": dirty block ", block, " has ", count,
               " sharers");
}

} // namespace dirsim
