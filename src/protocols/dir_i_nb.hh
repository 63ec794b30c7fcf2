/**
 * @file
 * Dir_i NB: i cache pointers per directory entry and no broadcast.
 *
 * The number of simultaneous copies of a block is capped at i: when
 * an (i+1)-th cache fetches a shared block, the directory invalidates
 * one existing copy (the oldest pointer) to free a pointer. The
 * scheme "trades off a slightly increased miss rate for avoiding
 * broadcasts altogether" (Section 6). Dir1NB is the i = 1 special
 * case and DirN NB the i = n case; both identities are asserted by
 * the test suite against the dedicated implementations.
 *
 * The directory keeps the i pointers in arrival order, since the
 * oldest is the victim, and nothing else: the dirty owner lives in
 * the engine (protocols/protocol.hh).
 */

#ifndef DIRSIM_PROTOCOLS_DIR_I_NB_HH
#define DIRSIM_PROTOCOLS_DIR_I_NB_HH

#include "directory/limited.hh"
#include "protocols/protocol.hh"

namespace dirsim
{

/** See file comment. */
class DirINB : public CoherenceProtocol
{
  public:
    static constexpr CacheBlockState stClean = 1;
    static constexpr CacheBlockState stDirty = 2;

    /**
     * @param num_caches_arg caches in the domain
     * @param blocks_arg the blocks references may name
     * @param num_pointers_arg i, the per-entry pointer budget (>= 1)
     */
    DirINB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
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
    /**
     * Record a new sharer, invalidating the oldest existing copy
     * first when the pointer array is full.
     *
     * @param costed false while handling uncosted first references
     */
    void recordSharer(BlockNum block, CacheId cache, bool costed);

    /** Directed invalidations to every pointer but @p keeper's. */
    void invalidateOthers(CacheId keeper, BlockNum block, bool costed);

    LimitedDirectory dir;
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR_I_NB_HH
