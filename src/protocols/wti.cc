#include "protocols/wti.hh"

#include "common/logging.hh"

namespace dirsim
{

WTI::WTI(unsigned num_caches_arg,
         const BlockSpace &blocks_arg,
         const CacheFactory &factory)
    : CoherenceProtocol(num_caches_arg, blocks_arg, factory)
{
}

void
WTI::handleReadMiss(CacheId cache, BlockNum block, const Others &,
                    bool first)
{
    // Memory is always current under write-through, so every miss is
    // served by main memory regardless of other copies.
    if (!first) {
        ++opCounts.memSupplies;
        ++opCounts.busTransactions;
    }
    install(cache, block, stValid);
}

void
WTI::handleWriteHit(CacheId cache, BlockNum block, CacheBlockState)
{
    // There is no dirty state; every write hit is a write to a
    // "clean" block and goes to memory on the bus.
    eventCounts.add(EventType::WhBlkCln);
    ++opCounts.writeThroughs;
    ++opCounts.busTransactions;
    // Snooping caches invalidate their copies at no bus cost.
    invalidateHolders(cache, block);
}

void
WTI::handleWriteMiss(CacheId cache, BlockNum block, const Others &,
                     bool first)
{
    // Write-allocate: fetch the block, then write through. Snoopers
    // invalidate on observing the write-through address. The
    // write-through itself is write-policy traffic, not a miss cost,
    // so it is charged even for (otherwise uncosted) first references.
    ++opCounts.writeThroughs;
    ++opCounts.busTransactions;
    if (!first) {
        ++opCounts.memSupplies;
        ++opCounts.busTransactions;
    }
    invalidateHolders(cache, block);
    install(cache, block, stValid);
}

void
WTI::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    holders(block).forEach([&](CacheId holder) {
        panicIfNot(cacheState(holder, block) == stValid,
                   "WTI: non-valid state for block ", block);
    });
}

} // namespace dirsim
