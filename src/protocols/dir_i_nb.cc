#include "protocols/dir_i_nb.hh"

#include "common/logging.hh"

namespace dirsim
{

template class DirectoryProtocol<DirINB>;

DirINB::DirINB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
               unsigned num_pointers_arg, const CacheFactory &factory)
    : DirectoryProtocol(num_caches_arg, blocks_arg, factory),
      dir(num_pointers_arg, blocks_arg.count)
{
}

void
DirINB::onEviction(CacheId cache, BlockNum block, CacheBlockState)
{
    dir.entry(block).removeSharer(cache);
}

std::string
DirINB::name() const
{
    return "Dir" + std::to_string(dir.pointerBudget()) + "NB";
}

void
DirINB::reachOwner(BlockNum)
{
    ++opCounts.invalMsgs; // directed write-back request
}

void
DirINB::invalidateCopies(CacheId keeper, BlockNum block)
{
    // The pointers name exactly the holders: one directed message
    // each. recordWrite() rewrites the entry.
    opCounts.invalMsgs += invalidateHolders(keeper, block);
}

void
DirINB::recordFill(CacheId cache, BlockNum block, const Others &)
{
    LimitedEntry entry = dir.entry(block);
    CacheId victim = invalidCacheId;
    auto outcome = entry.addSharer(cache, &victim);
    if (outcome == LimitedAddOutcome::EvictionRequired) {
        // Free a pointer by invalidating the oldest copy. This is the
        // extra cost Dir_i NB pays for never broadcasting.
        ++opCounts.overflowInvals;
        invalidateIn(victim, block);
        entry.removeSharer(victim);
        outcome = entry.addSharer(cache, &victim);
    }
    if (outcome != LimitedAddOutcome::Recorded) [[unlikely]]
        panic(name(), ": sharer could not be recorded after eviction");
}

void
DirINB::recordWrite(CacheId cache, BlockNum block, const Others &)
{
    LimitedEntry entry = dir.entry(block);
    entry.reset();
    entry.addSharer(cache);
}

void
DirINB::checkInvariants(BlockNum block) const
{
    DirectoryProtocol::checkInvariants(block);
    const SharerSet sharers = holders(block);
    panicIfNot(sharers.count() <= dir.pointerBudget(),
               name(), ": block ", block, " resides in ",
               sharers.count(), " caches, budget ",
               dir.pointerBudget());
    const ConstLimitedEntry entry = dir.entry(block);
    panicIfNot(entry.pointerCount() == sharers.count(),
               name(), ": pointer count disagrees for block ", block);
    for (const CacheId cache : entry.pointerList())
        panicIfNot(sharers.contains(cache),
                   name(), ": stale pointer for block ", block);
}

} // namespace dirsim
