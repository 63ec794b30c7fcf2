#include "protocols/dir_i_b.hh"

#include "common/logging.hh"

namespace dirsim
{

template class DirectoryProtocol<DirIB>;

DirIB::DirIB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
             unsigned num_pointers_arg, const CacheFactory &factory)
    : DirectoryProtocol(num_caches_arg, blocks_arg, factory),
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
DirIB::reachOwner(BlockNum)
{
    // Dirty implies a single, pointed-to owner: one directed message.
    ++opCounts.invalMsgs;
}

void
DirIB::invalidateCopies(CacheId keeper, BlockNum block)
{
    // Directed messages while the directory is exact, one broadcast
    // otherwise; either way the entry is exact afterwards.
    const unsigned invalidated = invalidateHolders(keeper, block);
    if (broadcastBits[block] != 0)
        ++opCounts.broadcastInvals;
    else
        opCounts.invalMsgs += invalidated;
    broadcastBits[block] = 0;
}

void
DirIB::recordFill(CacheId, BlockNum block, const Others &)
{
    // The pointer array overflows: only a broadcast reaches every
    // copy from now on.
    if (holderCount(block) > numPointers)
        broadcastBits[block] = 1;
}

void
DirIB::recordWrite(CacheId, BlockNum block, const Others &others)
{
    // The message to a dirty owner, its only copy, replaced the one
    // pointer. A write miss that found no copy leaves the bit as the
    // silent evictions left it.
    if (others.anyDirty)
        broadcastBits[block] = 0;
}

void
DirIB::checkInvariants(BlockNum block) const
{
    DirectoryProtocol::checkInvariants(block);
    const unsigned count = holderCount(block);
    // A clear bit means the i pointers still name every copy.
    panicIfNot(broadcastBits[block] != 0 || count <= numPointers,
               name(), ": block ", block, " has ", count,
               " holders and no broadcast bit");
}

} // namespace dirsim
