#include "directory/limited.hh"

#include "common/logging.hh"

namespace dirsim
{

template <bool Mutable>
LimitedAddOutcome
BasicLimitedEntry<Mutable>::addSharer(CacheId cache,
                                      CacheId *victim) requires Mutable
{
    if (pointsTo(cache))
        return LimitedAddOutcome::Recorded;
    const unsigned used = pointerCount();
    if (used < budget) {
        ptrs[used] = cache;
        ++*count;
        return LimitedAddOutcome::Recorded;
    }
    panicIfNot(victim != nullptr,
               "Dir_i overflow requires a victim out-parameter");
    *victim = ptrs[0];
    return LimitedAddOutcome::EvictionRequired;
}

template <bool Mutable>
void
BasicLimitedEntry<Mutable>::removeSharer(CacheId cache) requires Mutable
{
    const unsigned used = pointerCount();
    for (unsigned i = 0; i < used; ++i) {
        if (ptrs[i] != cache)
            continue;
        // Close the gap, preserving FIFO order.
        for (unsigned j = i + 1; j < used; ++j)
            ptrs[j - 1] = ptrs[j];
        --*count;
        return;
    }
}

template <bool Mutable>
bool
BasicLimitedEntry<Mutable>::pointsTo(CacheId cache) const
{
    const unsigned used = pointerCount();
    for (unsigned i = 0; i < used; ++i) {
        if (ptrs[i] == cache)
            return true;
    }
    return false;
}

template class BasicLimitedEntry<true>;
template class BasicLimitedEntry<false>;

LimitedDirectory::LimitedDirectory(unsigned num_pointers_arg,
                                   std::uint64_t block_count)
    : numPointers(num_pointers_arg), blocks(block_count)
{
    fatalIf(numPointers == 0,
            "Dir_0 entries keep no pointers; Dir_0 NB cannot grant "
            "exclusive access (see the paper) and Dir_0 B is the "
            "two-bit directory (directory/two_bit.hh)");
    fatalIf(numPointers > LimitedEntry::maxPointers, "a pointer budget of ",
            numPointers, " exceeds the entry's limit of ",
            LimitedEntry::maxPointers);
    ptrs = callocArena<CacheId>(block_count * numPointers);
    counts = callocArena<std::uint32_t>(block_count);
}

void
LimitedDirectory::rangePanic(BlockNum block) const
{
    panic("LimitedDirectory: block ", block, " outside the arena of ",
          blocks, " blocks");
}

} // namespace dirsim
