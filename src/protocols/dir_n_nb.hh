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
 */

#ifndef DIRSIM_PROTOCOLS_DIR_N_NB_HH
#define DIRSIM_PROTOCOLS_DIR_N_NB_HH

#include "protocols/directory_protocol.hh"

namespace dirsim
{

/** See file comment. */
class DirNNB : public DirectoryProtocol<DirNNB>
{
  public:
    DirNNB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
           const CacheFactory &factory = {});

    std::string name() const override { return "DirNNB"; }

  private:
    friend class DirectoryProtocol<DirNNB>;

    void reachOwner(BlockNum) { ++opCounts.invalMsgs; }
    void invalidateCopies(CacheId keeper, BlockNum block)
    {
        // One directed message per copy.
        opCounts.invalMsgs += invalidateHolders(keeper, block);
    }
    void recordFill(CacheId, BlockNum, const Others &) {}
    void recordWrite(CacheId, BlockNum, const Others &) {}
};

extern template class DirectoryProtocol<DirNNB>;

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIR_N_NB_HH
