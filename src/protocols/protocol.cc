#include "protocols/protocol.hh"

#include "cache/infinite_cache.hh"
#include "common/logging.hh"

namespace dirsim
{

CoherenceProtocol::CoherenceProtocol(unsigned num_caches_arg,
                                     const BlockSpace &blocks_arg,
                                     const CacheFactory &factory,
                                     std::optional<OracleStates> oracle)
    : cacheCount(num_caches_arg), blocks(blocks_arg),
      dirtyOwners(blocks_arg.count, invalidCacheId),
      finiteMode(static_cast<bool>(factory)),
      oracleMode(oracle.has_value() && !factory)
{
    fatalIf(num_caches_arg == 0,
            "a coherence domain needs at least one cache");
    holderSets.reset(num_caches_arg, blocks.count);
    if (oracleMode) {
        // Cache state is derived from the oracle, so no per-cache
        // arena is ever allocated (see the header).
        oracleClean = oracle->clean;
        oracleDirty = oracle->dirty;
        return;
    }
    caches.reserve(num_caches_arg);
    for (CacheId cache = 0; cache < num_caches_arg; ++cache) {
        if (factory)
            caches.push_back(factory(blocks));
        else
            caches.push_back(
                std::make_unique<InfiniteCache>(blocks.count));
        fatalIf(caches.back() == nullptr,
                "the cache factory returned a null cache");
    }
}

void
CoherenceProtocol::referencePanic(CacheId cache, BlockNum block) const
{
    panic(name(), ": reference by cache ", cache, " to block ", block,
          " outside the domain of ", cacheCount, " caches and ",
          blocks.count, " blocks");
}

void
CoherenceProtocol::handleEviction(CacheId cache, BlockNum block,
                                  CacheBlockState state)
{
    // The cache already dropped the line; mirror that in the oracle.
    holderSets.remove(block, cache);
    if (dirtyOwners[block] == cache)
        dirtyOwners[block] = invalidCacheId;
    // A modified victim must be written back to memory. This is
    // replacement (capacity/conflict) traffic, accounted in its own
    // operation counter so the coherence costs stay separable.
    if (isDirtyState(state)) {
        ++opCounts.evictionWriteBacks;
        ++opCounts.busTransactions;
    }
    onEviction(cache, block, state);
}

void
CoherenceProtocol::onEviction(CacheId, BlockNum, CacheBlockState)
{
}

void
CoherenceProtocol::attachTracer(ProtocolTraceSink *sink)
{
    traceSink = sink;
    tracePeriod = sink != nullptr ? sink->samplePeriod() : 0;
    traceCountdown = tracePeriod;
}

void
CoherenceProtocol::read(CacheId cache, BlockNum block, bool first_ref)
{
    checkReference(cache, block);
    if (traceSink != nullptr) {
        tracedRef(cache, block, first_ref, false);
        return;
    }
    processRead(cache, block, first_ref);
}

void
CoherenceProtocol::write(CacheId cache, BlockNum block, bool first_ref)
{
    checkReference(cache, block);
    if (traceSink != nullptr) {
        tracedRef(cache, block, first_ref, true);
        return;
    }
    processWrite(cache, block, first_ref);
}

void
CoherenceProtocol::tracedRef(CacheId cache, BlockNum block,
                             bool first_ref, bool is_write)
{
    // Label sink events with the original block numbers so traces
    // stay meaningful.
    const BlockNum label = blocks.label(block);
    traceSink->dataRef(label, cache, is_write);

    bool sampled = false;
    if (tracePeriod != 0 && --traceCountdown == 0) {
        traceCountdown = tracePeriod;
        sampled = true;
    }
    if (!sampled) {
        if (is_write)
            processWrite(cache, block, first_ref);
        else
            processRead(cache, block, first_ref);
        return;
    }

    // Capture the transition around the reference. The snapshots are
    // only taken on sampled references, so the cost scales with the
    // sampling rate, not the trace length.
    ProtocolTraceEvent event;
    event.block = label;
    event.cache = cache;
    event.firstRef = first_ref;
    event.stateBefore = stateOf(cache, block);
    event.othersBefore = classifyOthers(cache, block).numOthers;
    const EventCounts events_before = eventCounts;
    const OpCounts ops_before = opCounts;

    if (is_write)
        processWrite(cache, block, first_ref);
    else
        processRead(cache, block, first_ref);

    event.stateAfter = stateOf(cache, block);
    event.othersAfter = classifyOthers(cache, block).numOthers;
    event.type = mostSpecificNewEvent(events_before, eventCounts);
    event.ops = opCounts;
    event.ops.subtract(ops_before);
    event.ref = eventCounts.totalRefs();
    traceSink->emit(event);
}

void
CoherenceProtocol::processRead(CacheId cache, BlockNum block,
                               bool first_ref)
{
    eventCounts.add(EventType::Read);

    if (oracleMode ? holderSets.contains(block, cache)
                   : caches[cache]->access(block) != stateNotPresent) {
        eventCounts.add(EventType::RdHit);
        return;
    }

    if (first_ref) {
        eventCounts.add(EventType::RmFirstRef);
        handleReadMiss(cache, block, Others{}, true);
        return;
    }

    eventCounts.add(EventType::RdMiss);
    const Others others = classifyOthers(cache, block);
    if (others.anyDirty)
        eventCounts.add(EventType::RmBlkDrty);
    else if (others.numOthers > 0)
        eventCounts.add(EventType::RmBlkCln);
    handleReadMiss(cache, block, others, false);
}

void
CoherenceProtocol::processWrite(CacheId cache, BlockNum block,
                                bool first_ref)
{
    eventCounts.add(EventType::Write);

    const CacheBlockState state =
        oracleMode ? stateOf(cache, block) : caches[cache]->access(block);
    if (state != stateNotPresent) {
        eventCounts.add(EventType::WrtHit);
        handleWriteHit(cache, block, state);
        return;
    }

    if (first_ref) {
        eventCounts.add(EventType::WmFirstRef);
        handleWriteMiss(cache, block, Others{}, true);
        return;
    }

    eventCounts.add(EventType::WrtMiss);
    const Others others = classifyOthers(cache, block);
    if (others.anyDirty)
        eventCounts.add(EventType::WmBlkDrty);
    else if (others.numOthers > 0)
        eventCounts.add(EventType::WmBlkCln);
    handleWriteMiss(cache, block, others, false);
}

CacheBlockState
CoherenceProtocol::stateOf(CacheId cache, BlockNum block) const
{
    if (oracleMode) {
        if (!holderSets.contains(block, cache))
            return stateNotPresent;
        return dirtyOwners[block] == cache ? oracleDirty : oracleClean;
    }
    return caches[cache]->lookup(block);
}

CacheBlockState
CoherenceProtocol::cacheState(CacheId cache, BlockNum block) const
{
    panicIfNot(cache < cacheCount, "cache id out of range");
    return block < blocks.count ? stateOf(cache, block)
                                : stateNotPresent;
}

SharerSet
CoherenceProtocol::holders(BlockNum block) const
{
    if (block >= blocks.count)
        return SharerSet(cacheCount);
    return holderSets.snapshot(block);
}

void
CoherenceProtocol::snapshotHolders(BlockNum block, CacheIdList &out) const
{
    out.clear();
    if (block < blocks.count)
        holderSets.appendTo(block, out);
}

unsigned
CoherenceProtocol::holderCount(BlockNum block) const
{
    return block < blocks.count ? holderSets.count(block) : 0;
}

CacheId
CoherenceProtocol::firstHolder(BlockNum block) const
{
    return holderSets.first(block);
}

CacheId
CoherenceProtocol::dirtyHolder(BlockNum block) const
{
    CacheId owner = invalidCacheId;
    holders(block).forEach([&](CacheId holder) {
        if (isDirtyState(stateOf(holder, block)))
            owner = holder;
    });
    return owner;
}

std::vector<BlockNum>
CoherenceProtocol::residentBlocks() const
{
    std::vector<BlockNum> resident;
    for (BlockNum block = 0; block < blocks.count; ++block) {
        if (!holderSets.empty(block))
            resident.push_back(block);
    }
    return resident;
}

void
CoherenceProtocol::checkInvariants(BlockNum block) const
{
    panicIfNot(block < blocks.count,
               name(), ": block ", block, " outside the block space of ",
               blocks.count, " blocks");
    const SharerSet sharers = holders(block);

    // The holder oracle and the per-cache stores must agree.
    unsigned holder_count = 0;
    unsigned dirty_count = 0;
    for (CacheId cache = 0; cache < cacheCount; ++cache) {
        const CacheBlockState state = stateOf(cache, block);
        const bool resident = state != stateNotPresent;
        panicIfNot(resident == sharers.contains(cache),
                   name(), ": holder oracle out of sync for block ",
                   block, " cache ", cache);
        if (resident) {
            ++holder_count;
            if (isDirtyState(state))
                ++dirty_count;
        }
    }
    panicIfNot(holder_count == sharers.count(),
               name(), ": holder count mismatch for block ", block);

    // Universal single-writer rule: at most one modified/owned copy.
    panicIfNot(dirty_count <= 1,
               name(), ": block ", block, " is dirty in ", dirty_count,
               " caches");

    // The dirty-owner shadow must agree with the cache states it
    // summarizes.
    const CacheId owner = dirtyOwners[block];
    if (dirty_count == 0) {
        panicIfNot(owner == invalidCacheId,
                   name(), ": stale dirty owner ", owner,
                   " for clean block ", block);
    } else {
        panicIfNot(owner != invalidCacheId && sharers.contains(owner)
                       && isDirtyState(stateOf(owner, block)),
                   name(), ": dirty owner out of sync for block ",
                   block);
    }
}

void
CoherenceProtocol::checkAllInvariants() const
{
    // Absent blocks assert that no cache holds them.
    for (BlockNum block = 0; block < blocks.count; ++block)
        checkInvariants(block);
}

CoherenceProtocol::Others
CoherenceProtocol::classifyOthers(CacheId cache, BlockNum block) const
{
    Others others;
    if (block >= blocks.count)
        return others;
    // The holder oracle answers directly: an O(1) count, a reverse
    // scan for a representative holder (the one an ascending survey
    // would report last), and the tracked dirty owner instead of a
    // state probe per holder.
    const unsigned num_others = holderSets.countExcluding(block, cache);
    if (num_others == 0)
        return others;
    others.numOthers = num_others;
    others.anyHolder = holderSets.lastExcluding(block, cache);
    const CacheId owner = dirtyOwners[block];
    if (owner != invalidCacheId && owner != cache) {
        others.anyDirty = true;
        others.dirtyOwner = owner;
    }
    return others;
}

void
CoherenceProtocol::install(CacheId cache, BlockNum block,
                           CacheBlockState state)
{
    // Branch-then-panic: panicIfNot would build the message (a name()
    // string concatenation) on every install, and this runs once per
    // cache fill.
    if (block >= blocks.count) [[unlikely]]
        panic(name(), ": block ", block, " outside the block space of ",
              blocks.count, " blocks");
    // Order matters with finite caches: the insertion may evict a
    // line, whose handling edits the holder oracle, so the oracle
    // entry for the new block is added afterwards. In oracle mode the
    // oracle *is* the cache state, so there is nothing else to write.
    if (!oracleMode) {
        const CacheLine victim = caches[cache]->set(block, state);
        if (victim.state != stateNotPresent)
            handleEviction(cache, victim.block, victim.state);
    }
    holderSets.add(block, cache);
    if (isDirtyState(state))
        dirtyOwners[block] = cache;
    else if (dirtyOwners[block] == cache)
        dirtyOwners[block] = invalidCacheId;
}

void
CoherenceProtocol::setState(CacheId cache, BlockNum block,
                            CacheBlockState state)
{
    // The holder oracle mirrors every cache's residency, so one
    // check serves both modes and set() is the only cache probe.
    if (!holderSets.contains(block, cache)) [[unlikely]]
        panic(name(), ": setState for a block cache ", cache,
              " does not hold");
    if (!oracleMode)
        caches[cache]->set(block, state);
    if (isDirtyState(state))
        dirtyOwners[block] = cache;
    else if (dirtyOwners[block] == cache)
        dirtyOwners[block] = invalidCacheId;
}

void
CoherenceProtocol::invalidateIn(CacheId cache, BlockNum block)
{
    if (!oracleMode)
        caches[cache]->invalidate(block);
    holderSets.remove(block, cache);
    if (dirtyOwners[block] == cache)
        dirtyOwners[block] = invalidCacheId;
}

} // namespace dirsim
