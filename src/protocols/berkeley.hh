/**
 * @file
 * Berkeley Ownership: the snoopy invalidation protocol of Katz et
 * al., which the paper estimates analytically (Section 5) by zeroing
 * Dir0B's directory-probe cost. We implement the protocol itself as
 * well: ownership states let a cache supply a dirty block directly
 * (without updating memory) and let a writer skip the directory probe
 * because the need to invalidate is known from the local block state.
 */

#ifndef DIRSIM_PROTOCOLS_BERKELEY_HH
#define DIRSIM_PROTOCOLS_BERKELEY_HH

#include "protocols/protocol.hh"

namespace dirsim
{

/** See file comment. */
class Berkeley : public CoherenceProtocol
{
  public:
    /** Clean-ish copy, not owned (memory or another cache owns). */
    static constexpr CacheBlockState stValid = 1;
    /** Owned and possibly shared (memory stale). */
    static constexpr CacheBlockState stOwnedShared = 2;
    /** Owned exclusively (memory stale); writes are free. */
    static constexpr CacheBlockState stOwnedExcl = 3;

    Berkeley(unsigned num_caches_arg, const BlockSpace &blocks_arg,
             const CacheFactory &factory = {});

    std::string name() const override { return "Berkeley"; }
    bool isDirtyState(CacheBlockState state) const override
    {
        return state == stOwnedShared || state == stOwnedExcl;
    }
    void checkInvariants(BlockNum block) const override;

  protected:
    void handleReadMiss(CacheId cache, BlockNum block,
                        const Others &others, bool first) override;
    void handleWriteHit(CacheId cache, BlockNum block,
                        CacheBlockState state) override;
    void handleWriteMiss(CacheId cache, BlockNum block,
                         const Others &others, bool first) override;
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_BERKELEY_HH
