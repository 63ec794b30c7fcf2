/**
 * @file
 * WTI: Write-Through-With-Invalidate, the paper's low-end snoopy
 * comparison point. Every write is transmitted to main memory; other
 * caches snoop the bus and invalidate matching blocks for free, so
 * memory is always current and no dirty state exists. The write
 * traffic makes it "one of the lowest-performance snooping cache
 * consistency protocols".
 *
 * WTI shares its data state-change model with Dir0B (multiple clean
 * copies, one writer), so their event frequencies are identical on a
 * given trace — an identity Section 5 of the paper points out, and
 * which the test suite asserts.
 */

#ifndef DIRSIM_PROTOCOLS_WTI_HH
#define DIRSIM_PROTOCOLS_WTI_HH

#include "protocols/protocol.hh"

namespace dirsim
{

/** See file comment. */
class WTI : public CoherenceProtocol
{
  public:
    /** The only cache state: valid (memory is never stale). */
    static constexpr CacheBlockState stValid = 1;

    WTI(unsigned num_caches_arg, const BlockSpace &blocks_arg,
        const CacheFactory &factory = {});

    std::string name() const override { return "WTI"; }
    bool isDirtyState(CacheBlockState) const override { return false; }
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

#endif // DIRSIM_PROTOCOLS_WTI_HH
