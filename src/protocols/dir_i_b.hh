/**
 * @file
 * Dir_i B: i cache pointers plus a broadcast bit per directory entry
 * (Section 6 of the paper). While at most i caches share a block the
 * directory is exact and invalidations are directed; when the pointer
 * array overflows the broadcast bit is set and the next invalidation
 * must be broadcast. Dir1B is the paper's headline variant: since a
 * single invalidation is the common case, its cost model is
 * 0.0485 + 0.0006*b cycles per reference on their traces.
 */

#ifndef DIRSIM_PROTOCOLS_DIR_I_B_HH
#define DIRSIM_PROTOCOLS_DIR_I_B_HH

#include "directory/limited.hh"
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

    unsigned pointerBudget() const { return dir.pointerBudget(); }

  protected:
    void onEviction(CacheId cache, BlockNum block,
                    CacheBlockState state) override;

  public:
    /** The limited-pointer directory (exposed for tests). */
    const LimitedDirectory &directory() const { return dir; }

  protected:
    void handleReadMiss(CacheId cache, BlockNum block,
                        const Others &others, bool first) override;
    void handleWriteHit(CacheId cache, BlockNum block,
                        CacheBlockState state) override;
    void handleWriteMiss(CacheId cache, BlockNum block,
                         const Others &others, bool first) override;

  private:
    /** Record a new sharer; overflow flips the entry to broadcast. */
    void recordSharer(BlockNum block, CacheId cache);

    /**
     * Invalidate all copies but @p keeper's: directed messages while
     * the directory is exact, one broadcast otherwise.
     */
    void invalidateOthers(CacheId keeper, BlockNum block, bool costed);

    LimitedDirectory dir;
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR_I_B_HH
