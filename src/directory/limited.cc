#include "directory/limited.hh"

#include "common/logging.hh"

namespace dirsim
{

LimitedEntry::LimitedEntry(unsigned num_pointers_arg,
                           bool allow_broadcast_arg)
    : numPointers(num_pointers_arg), allowBroadcast(allow_broadcast_arg)
{
    fatalIf(numPointers == 0,
            "Dir_0 entries keep no pointers; Dir_0 NB cannot grant "
            "exclusive access (see the paper) and Dir_0 B is the "
            "two-bit directory (directory/two_bit.hh)");
    if (numPointers > inlineCap)
        heapPtrs.resize(numPointers);
}

LimitedAddOutcome
LimitedEntry::addSharer(CacheId cache, CacheId *victim)
{
    if (broadcast)
        return LimitedAddOutcome::AlreadyBroadcast;
    if (pointsTo(cache))
        return LimitedAddOutcome::Recorded;
    if (used < numPointers) {
        data()[used++] = cache;
        return LimitedAddOutcome::Recorded;
    }
    if (allowBroadcast) {
        broadcast = true;
        used = 0;
        return LimitedAddOutcome::BroadcastSet;
    }
    panicIfNot(victim != nullptr,
               "Dir_i NB overflow requires a victim out-parameter");
    *victim = data()[0];
    return LimitedAddOutcome::EvictionRequired;
}

void
LimitedEntry::removeSharer(CacheId cache)
{
    CacheId *ptrs = data();
    for (std::uint32_t i = 0; i < used; ++i) {
        if (ptrs[i] != cache)
            continue;
        // Close the gap, preserving FIFO order.
        for (std::uint32_t j = i + 1; j < used; ++j)
            ptrs[j - 1] = ptrs[j];
        --used;
        return;
    }
}

void
LimitedEntry::reset()
{
    used = 0;
    broadcast = false;
    dirty = false;
}

bool
LimitedEntry::pointsTo(CacheId cache) const
{
    const CacheId *ptrs = data();
    for (std::uint32_t i = 0; i < used; ++i) {
        if (ptrs[i] == cache)
            return true;
    }
    return false;
}

LimitedDirectory::LimitedDirectory(unsigned num_pointers_arg,
                                   bool allow_broadcast_arg,
                                   std::uint64_t block_count)
    : numPointers(num_pointers_arg), allowBroadcast(allow_broadcast_arg)
{
    fatalIf(numPointers == 0, "LimitedDirectory needs i >= 1");
    entries.assign(block_count,
                   LimitedEntry(numPointers, allowBroadcast));
}

LimitedEntry &
LimitedDirectory::entry(BlockNum block)
{
    panicIfNot(block < entries.size(),
               "LimitedDirectory: block ", block,
               " outside the arena of ", entries.size(), " blocks");
    return entries[block];
}

const LimitedEntry *
LimitedDirectory::find(BlockNum block) const
{
    return block < entries.size() ? &entries[block] : nullptr;
}

} // namespace dirsim
