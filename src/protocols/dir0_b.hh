/**
 * @file
 * Dir0B: the Archibald & Baer broadcast directory scheme.
 *
 * The directory keeps just two bits per memory block (not cached /
 * clean in exactly one cache / clean in an unknown number of caches /
 * dirty in exactly one cache) and no cache pointers, so invalidations
 * and write-back requests are bus broadcasts. The "clean in exactly
 * one cache" state lets the sole holder write without a broadcast.
 * This is one of the paper's two directory design points and the
 * baseline for its Section 6 scalability variants.
 */

#ifndef DIRSIM_PROTOCOLS_DIR0_B_HH
#define DIRSIM_PROTOCOLS_DIR0_B_HH

#include "directory/two_bit.hh"
#include "protocols/directory_protocol.hh"

namespace dirsim
{

/** See file comment. */
class Dir0B : public DirectoryProtocol<Dir0B>
{
  public:
    Dir0B(unsigned num_caches_arg, const BlockSpace &blocks_arg,
          const CacheFactory &factory = {});

    std::string name() const override { return "Dir0B"; }
    void checkInvariants(BlockNum block) const override;

    /** The two-bit directory (exposed for tests). */
    const TwoBitDirectory &directory() const { return dir; }

  protected:
    void onEviction(CacheId cache, BlockNum block,
                    CacheBlockState state) override;

  private:
    friend class DirectoryProtocol<Dir0B>;

    void reachOwner(BlockNum block);
    void invalidateCopies(CacheId keeper, BlockNum block);
    void recordFill(CacheId cache, BlockNum block, const Others &others);
    void recordWrite(CacheId cache, BlockNum block, const Others &others);

    TwoBitDirectory dir;
};

extern template class DirectoryProtocol<Dir0B>;

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR0_B_HH
