/**
 * @file
 * DirN NB: the Censier & Feautrier full-map directory with sequential
 * (directed) invalidations — one present bit per cache and a dirty
 * bit per memory block, so every copy's location is known and no
 * broadcast is ever needed.
 *
 * A full map's present bits and dirty bit are exactly the engine's
 * holder oracle and dirty owner (protocols/protocol.hh), so the
 * scheme keeps no directory of its own: it invalidates the oracle's
 * holders in ascending order. directory/storage.hh still prices the
 * organization at n + 1 bits per block.
 *
 * Section 6 of the paper evaluates exactly this scheme: the bus
 * cycles per reference rise only from 0.0491 (Dir0B, broadcast) to
 * 0.0499 (sequential invalidates) because over 85% of writes to
 * previously-clean blocks invalidate at most one other copy.
 */

#ifndef DIRSIM_PROTOCOLS_DIR_N_NB_HH
#define DIRSIM_PROTOCOLS_DIR_N_NB_HH

#include "protocols/protocol.hh"

namespace dirsim
{

/** See file comment. */
class DirNNB : public CoherenceProtocol
{
  public:
    static constexpr CacheBlockState stClean = 1;
    static constexpr CacheBlockState stDirty = 2;

    DirNNB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
           const CacheFactory &factory = {});

    std::string name() const override { return "DirNNB"; }
    bool isDirtyState(CacheBlockState state) const override
    {
        return state == stDirty;
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
     * Send directed invalidations to every holder but @p keeper.
     *
     * @param costed false while handling uncosted first references
     */
    void invalidateOthers(CacheId keeper, BlockNum block, bool costed);
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR_N_NB_HH
