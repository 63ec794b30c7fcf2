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
#include "protocols/directory_protocol.hh"

namespace dirsim
{

/** See file comment. */
class DirINB : public DirectoryProtocol<DirINB>
{
  public:
    /**
     * @param num_caches_arg caches in the domain
     * @param blocks_arg the blocks references may name
     * @param num_pointers_arg i, the per-entry pointer budget (>= 1)
     */
    DirINB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
           unsigned num_pointers_arg, const CacheFactory &factory = {});

    std::string name() const override;
    void checkInvariants(BlockNum block) const override;

    unsigned pointerBudget() const { return dir.pointerBudget(); }

    /** The limited-pointer directory (exposed for tests). */
    const LimitedDirectory &directory() const { return dir; }

  protected:
    void onEviction(CacheId cache, BlockNum block,
                    CacheBlockState state) override;

  private:
    friend class DirectoryProtocol<DirINB>;

    void reachOwner(BlockNum block);
    void invalidateCopies(CacheId keeper, BlockNum block);
    void recordFill(CacheId cache, BlockNum block, const Others &others);
    void recordWrite(CacheId cache, BlockNum block, const Others &others);

    LimitedDirectory dir;
};

extern template class DirectoryProtocol<DirINB>;

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR_I_NB_HH
