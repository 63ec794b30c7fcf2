/**
 * @file
 * Dir_i B: i cache pointers plus a broadcast bit per directory entry
 * (Section 6 of the paper). While at most i caches share a block the
 * directory is exact and invalidations are directed; when the pointer
 * array overflows the broadcast bit is set and the next invalidation
 * must be broadcast.
 *
 * While the bit is clear the i pointers name exactly the engine's
 * holders (protocols/protocol.hh), whom the directed invalidations
 * walk, so the scheme keeps only the broadcast bit: one byte per
 * block. directory/storage.hh prices the whole entry.
 */

#ifndef DIRSIM_PROTOCOLS_DIR_I_B_HH
#define DIRSIM_PROTOCOLS_DIR_I_B_HH

#include <cstdint>

#include "common/arena.hh"
#include "protocols/directory_protocol.hh"

namespace dirsim
{

/** See file comment. */
class DirIB : public DirectoryProtocol<DirIB>
{
  public:
    /**
     * @param num_caches_arg caches in the domain
     * @param blocks_arg the blocks references may name
     * @param num_pointers_arg i, the per-entry pointer budget (>= 1)
     */
    DirIB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
          unsigned num_pointers_arg, const CacheFactory &factory = {});

    std::string name() const override;
    void checkInvariants(BlockNum block) const override;

    unsigned pointerBudget() const { return numPointers; }

    /** True when @p block's broadcast bit is set: its next
     *  invalidation is a broadcast. */
    bool broadcastBit(BlockNum block) const
    {
        return block < blockSpace().count && broadcastBits[block] != 0;
    }

  private:
    friend class DirectoryProtocol<DirIB>;

    void reachOwner(BlockNum block);
    void invalidateCopies(CacheId keeper, BlockNum block);
    void recordFill(CacheId cache, BlockNum block, const Others &others);
    void recordWrite(CacheId cache, BlockNum block, const Others &others);

    unsigned numPointers;
    /** Block b's broadcast bit: set when an install leaves more than
     *  i holders, cleared by the invalidating write; an eviction
     *  leaves it (the directory cannot tell how many copies remain). */
    CallocArena<std::uint8_t> broadcastBits;
};

extern template class DirectoryProtocol<DirIB>;

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR_I_B_HH
