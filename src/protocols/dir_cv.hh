/**
 * @file
 * The Section 6 "limited broadcast" directory: instead of n present
 * bits, each entry stores the 2*log2(n)-bit ternary code of
 * directory/coarse_vector.hh, which always denotes a superset of the
 * caches holding the block. Invalidations are sent (sequentially) to
 * every cache in the superset — more messages than the exact full
 * map, far fewer bits of storage, and never a full broadcast unless
 * the code has degenerated to one.
 *
 * A region granularity K > 0 selects the coarse-vector alternative
 * instead (DirCVr<K>): one presence bit per K-cache region, clipped
 * at the domain edge. The superset is then the union of the flagged
 * regions, and a dirty block's code denotes the owner's whole region,
 * so locating the owner costs one probe per region member.
 */

#ifndef DIRSIM_PROTOCOLS_DIR_CV_HH
#define DIRSIM_PROTOCOLS_DIR_CV_HH

#include "directory/coarse_vector.hh"
#include "protocols/directory_protocol.hh"

namespace dirsim
{

/** See file comment. */
class DirCV : public DirectoryProtocol<DirCV>
{
  public:
    /** @param region_size_arg 0 for the ternary code, else the
     *         region granularity K (see CoarseVectorDirectory). */
    DirCV(unsigned num_caches_arg, const BlockSpace &blocks_arg,
          unsigned region_size_arg = 0, const CacheFactory &factory = {});

    std::string name() const override;
    void checkInvariants(BlockNum block) const override;

    /** The coarse-vector directory (exposed for tests). */
    const CoarseVectorDirectory &directory() const { return dir; }

  protected:
    void onEviction(CacheId cache, BlockNum block,
                    CacheBlockState state) override;

  private:
    friend class DirectoryProtocol<DirCV>;

    void reachOwner(BlockNum block);
    void invalidateCopies(CacheId keeper, BlockNum block);
    void recordFill(CacheId cache, BlockNum block, const Others &others);
    void recordWrite(CacheId cache, BlockNum block, const Others &others);

    CoarseVectorDirectory dir;
};

extern template class DirectoryProtocol<DirCV>;

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR_CV_HH
