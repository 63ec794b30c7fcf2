/**
 * @file
 * Dir1NB: the single-pointer, no-broadcast directory scheme.
 *
 * A block may reside in at most one cache at a time, so no data
 * inconsistency can ever arise. The directory entry is one pointer to
 * the owning cache. Every miss that finds the block elsewhere
 * invalidates it there (with a write-back when dirty). Simple and
 * trivially scalable, but read sharing is punished hard — the paper
 * measures a ~6x bus-cycle penalty versus Dir0B, dominated by spin
 * locks bouncing between caches (Section 5.2).
 *
 * The pointer repeats the engine's holder oracle (the sole holder) and
 * the dirty bit is the holder's cache state, so no decision reads the
 * directory. It keeps its pointer and count arenas anyway: deleting
 * them changes the size of a paper-grid cell's allocations, which
 * moves the benchmark's set-up time through glibc's heap trimming
 * (docs/performance.md, "Heap trimming").
 */

#ifndef DIRSIM_PROTOCOLS_DIR1_NB_HH
#define DIRSIM_PROTOCOLS_DIR1_NB_HH

#include "directory/limited.hh"
#include "protocols/protocol.hh"

namespace dirsim
{

/** See file comment. */
class Dir1NB : public CoherenceProtocol
{
  public:
    /** Cache block states. */
    static constexpr CacheBlockState stClean = 1;
    static constexpr CacheBlockState stDirty = 2;

    Dir1NB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
           const CacheFactory &factory = {});

    std::string name() const override { return "Dir1NB"; }
    bool isDirtyState(CacheBlockState state) const override
    {
        return state == stDirty;
    }
    void checkInvariants(BlockNum block) const override;

  protected:
    void onEviction(CacheId cache, BlockNum block,
                    CacheBlockState state) override;

  public:
    /** The single-pointer directory (exposed for tests). */
    const LimitedDirectory &directory() const { return dir; }

  protected:
    void handleReadMiss(CacheId cache, BlockNum block,
                        const Others &others, bool first) override;
    void handleWriteHit(CacheId cache, BlockNum block,
                        CacheBlockState state) override;
    void handleWriteMiss(CacheId cache, BlockNum block,
                         const Others &others, bool first) override;

  private:
    /** Evict the block from its current holder, write back if dirty. */
    void displace(BlockNum block, const Others &others);

    /** Record the new sole holder in the directory. */
    void takeOwnership(CacheId cache, BlockNum block);

    LimitedDirectory dir;
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR1_NB_HH
