/**
 * @file
 * Dragon: the Xerox PARC update-based snoopy protocol, the paper's
 * high-end comparison point. Stale copies are never invalidated;
 * writes to shared blocks broadcast the new word on the bus and every
 * holder updates in place. A "shared" bus line tells the writer
 * whether any other cache holds the block. With infinite caches a
 * block, once loaded, stays resident forever, so the miss rate is the
 * native (sharing-free) miss rate and the dominant cost is the write
 * updates ("wh-distrib" events).
 */

#ifndef DIRSIM_PROTOCOLS_DRAGON_HH
#define DIRSIM_PROTOCOLS_DRAGON_HH

#include "protocols/protocol.hh"

namespace dirsim
{

/** See file comment. */
class Dragon : public CoherenceProtocol
{
  public:
    /** Clean, only copy in the system. */
    static constexpr CacheBlockState stExclusive = 1;
    /** Possibly shared, memory current or owned elsewhere. */
    static constexpr CacheBlockState stSharedClean = 2;
    /** Possibly shared, this cache owns the (stale-in-memory) data. */
    static constexpr CacheBlockState stSharedDirty = 3;
    /** Modified, only copy in the system. */
    static constexpr CacheBlockState stDirty = 4;

    Dragon(unsigned num_caches_arg, const BlockSpace &blocks_arg,
           const CacheFactory &factory = {});

    std::string name() const override { return "Dragon"; }
    bool isDirtyState(CacheBlockState state) const override
    {
        return state == stSharedDirty || state == stDirty;
    }
    void checkInvariants(BlockNum block) const override;

  protected:
    void handleReadMiss(CacheId cache, BlockNum block,
                        const Others &others, bool first) override;
    void handleWriteHit(CacheId cache, BlockNum block,
                        CacheBlockState state) override;
    void handleWriteMiss(CacheId cache, BlockNum block,
                         const Others &others, bool first) override;

  private:
    /**
     * A write by @p writer was observed by all other holders: they
     * update their copies and any previous owner demotes to
     * shared-clean (the writer becomes the owner).
     */
    void applyUpdate(CacheId writer, BlockNum block);

    /** Exclusive holders observed a new sharer: demote to shared. */
    void demoteToShared(CacheId requester, BlockNum block);
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DRAGON_HH
