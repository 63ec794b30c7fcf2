/**
 * @file
 * The Yen & Fu refinement of the Censier & Feautrier scheme
 * (Section 2 of the paper): the central directory is unchanged, but
 * each cache block additionally carries a "single bit" that is set
 * iff that cache is the only one in the system holding the block.
 *
 * A write hit on a single-bit block can proceed without completing a
 * central directory access (the latency win). The drawback the paper
 * calls out — "extra bus bandwidth is consumed to keep the single
 * bits updated ... the scheme saves central directory accesses, but
 * does not reduce the number of bus accesses" — is modelled
 * explicitly: single-bit maintenance signals and the background
 * dirty-notification are tallied as one-word update operations
 * (OpCounts::writeUpdates, the "wt or wup" cost row).
 *
 * The central directory is a full map, which the engine's holder
 * oracle and dirty owner already are (see protocols/dir_n_nb.hh), so
 * the scheme keeps only its cache states, the single bits among them.
 */

#ifndef DIRSIM_PROTOCOLS_YEN_FU_HH
#define DIRSIM_PROTOCOLS_YEN_FU_HH

#include "protocols/protocol.hh"

namespace dirsim
{

/** See file comment. */
class YenFu : public CoherenceProtocol
{
  public:
    /** Clean, other copies may exist (single bit clear). */
    static constexpr CacheBlockState stClean = 1;
    /** Clean and the only copy in the system (single bit set). */
    static constexpr CacheBlockState stCleanSingle = 2;
    /** Modified; implies the only copy. */
    static constexpr CacheBlockState stDirty = 3;

    YenFu(unsigned num_caches_arg, const BlockSpace &blocks_arg,
          const CacheFactory &factory = {});

    std::string name() const override { return "YenFu"; }
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
    void onEviction(CacheId cache, BlockNum block,
                    CacheBlockState state) override;

  private:
    /** Directed invalidations to every copy but @p keeper's. */
    void invalidateOthers(CacheId keeper, BlockNum block, bool costed);

    /**
     * A single remaining clean holder must have its single bit set
     * (one maintenance signal on the bus).
     */
    void restoreSingleBit(BlockNum block, bool costed);
};

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_YEN_FU_HH
