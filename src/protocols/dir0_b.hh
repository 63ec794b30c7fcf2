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
#include "protocols/protocol.hh"

namespace dirsim
{

/** See file comment. */
class Dir0B : public CoherenceProtocol
{
  public:
    static constexpr CacheBlockState stClean = 1;
    static constexpr CacheBlockState stDirty = 2;

    Dir0B(unsigned num_caches_arg, const BlockSpace &blocks_arg,
          const CacheFactory &factory = {});

    std::string name() const override { return "Dir0B"; }
    bool isDirtyState(CacheBlockState state) const override
    {
        return state == stDirty;
    }
    void checkInvariants(BlockNum block) const override;

  protected:
    void onEviction(CacheId cache, BlockNum block,
                    CacheBlockState state) override;

  public:
    /** The two-bit directory (exposed for tests). */
    const TwoBitDirectory &directory() const { return dir; }

  protected:
    void handleReadMiss(CacheId cache, BlockNum block,
                        const Others &others, bool first) override;
    void handleWriteHit(CacheId cache, BlockNum block,
                        CacheBlockState state) override;
    void handleWriteMiss(CacheId cache, BlockNum block,
                         const Others &others, bool first) override;

  private:
    /** Invalidate every copy but @p keeper's (one bus broadcast). */
    void broadcastInvalidate(CacheId keeper, BlockNum block, bool costed);

    TwoBitDirectory dir;
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR0_B_HH
