/**
 * @file
 * The one directory protocol of the Dir_i X schemes.
 *
 * Dir0B, Dir_i B, Dir_i NB, DirN NB and DirCV run the same Censier &
 * Feautrier write-invalidate protocol on two cache states and differ
 * only in their directory organization, which is all the paper's
 * Dir_i X name says. DirectoryProtocol<Scheme> is that protocol, once:
 *
 *  - A read miss that finds a dirty owner reaches it with a
 *    write-back request; the flush supplies memory and the requester
 *    together, and the owner keeps a clean copy. Any other read miss
 *    is supplied by memory. The requester installs the block clean.
 *  - A write hit on a clean block probes the directory (a check that
 *    cannot overlap a memory access), invalidates every other copy
 *    and makes the writer's copy dirty; a write hit on a dirty block
 *    is silent.
 *  - A write miss flushes and invalidates a dirty owner, or
 *    invalidates the clean copies and is supplied by memory; the
 *    requester installs the block dirty.
 *
 * So a dirty block has exactly one holder. The scheme answers four
 * questions about its directory, as non-virtual members the protocol
 * calls through CRTP:
 *
 *  - reachOwner(block): charge the messages that reach a dirty owner
 *    (the protocol counts the write-back supply);
 *  - invalidateCopies(keeper, block): invalidate every copy but
 *    @c keeper's (invalidCacheId on a write miss), charging what the
 *    organization sends;
 *  - recordFill(cache, block, others): update the entry after a read
 *    miss installed @c cache's clean copy;
 *  - recordWrite(cache, block, others): update the entry after a
 *    write left @c cache the dirty sole holder.
 *
 * Each scheme's .cc instantiates its DirectoryProtocol explicitly, so
 * the hooks inline into the three handlers there.
 */

#ifndef DIRSIM_PROTOCOLS_DIRECTORY_PROTOCOL_HH
#define DIRSIM_PROTOCOLS_DIRECTORY_PROTOCOL_HH

#include "common/logging.hh"
#include "protocols/protocol.hh"

namespace dirsim
{

/** See file comment. */
template <class Scheme>
class DirectoryProtocol : public CoherenceProtocol
{
  public:
    static constexpr CacheBlockState stClean = 1;
    static constexpr CacheBlockState stDirty = 2;

    bool isDirtyState(CacheBlockState state) const final
    {
        return state == stDirty;
    }

    /** The base checks plus the protocol's own: a dirty block has
     *  one holder. */
    void checkInvariants(BlockNum block) const override;

  protected:
    DirectoryProtocol(unsigned num_caches_arg, const BlockSpace &blocks_arg,
                      const CacheFactory &factory)
        : CoherenceProtocol(num_caches_arg, blocks_arg, factory,
                            OracleStates{stClean, stDirty})
    {}

    void handleReadMiss(CacheId cache, BlockNum block,
                        const Others &others, bool first) final;
    void handleWriteHit(CacheId cache, BlockNum block,
                        CacheBlockState state) final;
    void handleWriteMiss(CacheId cache, BlockNum block,
                         const Others &others, bool first) final;

  private:
    Scheme &scheme() { return static_cast<Scheme &>(*this); }
};

template <class Scheme>
void
DirectoryProtocol<Scheme>::handleReadMiss(CacheId cache, BlockNum block,
                                          const Others &others, bool first)
{
    if (others.anyDirty) {
        scheme().reachOwner(block);
        ++opCounts.dirtySupplies;
        setState(others.dirtyOwner, block, stClean);
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stClean);
    scheme().recordFill(cache, block, others);
}

template <class Scheme>
void
DirectoryProtocol<Scheme>::handleWriteHit(CacheId cache, BlockNum block,
                                          CacheBlockState state)
{
    if (state == stDirty) {
        eventCounts.add(EventType::WhBlkDrty);
        return;
    }
    eventCounts.add(EventType::WhBlkCln);
    const Others others = classifyOthers(cache, block);
    sampleCleanWrite(others.numOthers);
    ++opCounts.dirChecks;
    ++opCounts.busTransactions;
    scheme().invalidateCopies(cache, block);
    setState(cache, block, stDirty);
    scheme().recordWrite(cache, block, others);
}

template <class Scheme>
void
DirectoryProtocol<Scheme>::handleWriteMiss(CacheId cache, BlockNum block,
                                           const Others &others, bool first)
{
    if (others.anyDirty) {
        scheme().reachOwner(block);
        ++opCounts.dirtySupplies;
        invalidateIn(others.dirtyOwner, block);
    } else if (others.numOthers > 0) {
        sampleCleanWrite(others.numOthers);
        scheme().invalidateCopies(invalidCacheId, block);
        ++opCounts.memSupplies;
    } else if (!first) {
        ++opCounts.memSupplies;
    }
    if (!first)
        ++opCounts.busTransactions;
    install(cache, block, stDirty);
    scheme().recordWrite(cache, block, others);
}

template <class Scheme>
void
DirectoryProtocol<Scheme>::checkInvariants(BlockNum block) const
{
    CoherenceProtocol::checkInvariants(block);
    panicIfNot(dirtyHolder(block) == invalidCacheId
                   || holderCount(block) == 1,
               name(), ": dirty block ", block, " has ",
               holderCount(block), " holders");
}

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_DIRECTORY_PROTOCOL_HH
