/**
 * @file
 * Dir_i B: i cache pointers plus a broadcast bit per directory entry
 * (Section 6 of the paper). While at most i caches share a block the
 * directory is exact and invalidations are directed; when the pointer
 * array overflows the broadcast bit is set and the next invalidation
 * must be broadcast. Dir1B is the paper's headline variant: since a
 * single invalidation is the common case, its cost model is
 * 0.0485 + 0.0006*b cycles per reference on their traces.
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
#include "protocols/protocol.hh"

namespace dirsim
{

/** See file comment. */
class DirIB : public CoherenceProtocol
{
  public:
    static constexpr CacheBlockState stClean = 1;
    static constexpr CacheBlockState stDirty = 2;

    /**
     * @param num_caches_arg caches in the domain
     * @param blocks_arg the blocks references may name
     * @param num_pointers_arg i, the per-entry pointer budget (>= 1)
     */
    DirIB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
          unsigned num_pointers_arg, const CacheFactory &factory = {});

    std::string name() const override;
    bool isDirtyState(CacheBlockState state) const override
    {
        return state == stDirty;
    }
    void checkInvariants(BlockNum block) const override;

    unsigned pointerBudget() const { return numPointers; }

    /** True when @p block's broadcast bit is set: its next
     *  invalidation is a broadcast. */
    bool broadcastBit(BlockNum block) const
    {
        return block < blockSpace().count && broadcastBits[block] != 0;
    }

  protected:
    void handleReadMiss(CacheId cache, BlockNum block,
                        const Others &others, bool first) override;
    void handleWriteHit(CacheId cache, BlockNum block,
                        CacheBlockState state) override;
    void handleWriteMiss(CacheId cache, BlockNum block,
                         const Others &others, bool first) override;

  private:
    /**
     * Invalidate all copies but @p keeper's: directed messages while
     * the directory is exact, one broadcast otherwise. Either way the
     * entry is exact afterwards.
     */
    void invalidateOthers(CacheId keeper, BlockNum block, bool costed);

    unsigned numPointers;
    /** Block b's broadcast bit: set when an install leaves more than
     *  i holders, cleared by the invalidating write; an eviction
     *  leaves it (the directory cannot tell how many copies remain). */
    CallocArena<std::uint8_t> broadcastBits;
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR_I_B_HH
