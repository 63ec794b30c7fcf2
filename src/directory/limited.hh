/**
 * @file
 * Limited-pointer directory entries: the Dir_i B and Dir_i NB points
 * of the paper's taxonomy. Each entry keeps at most @c i cache
 * pointers plus a dirty bit, and (for the B variants) a broadcast bit
 * that is set when the pointer array overflows.
 */

#ifndef DIRSIM_DIRECTORY_LIMITED_HH
#define DIRSIM_DIRECTORY_LIMITED_HH

#include <array>
#include <cstdint>
#include <vector>

#include "directory/sharer_set.hh"

namespace dirsim
{

/** What happened when a sharer was recorded in a limited entry. */
enum class LimitedAddOutcome
{
    /** Pointer stored (or already present). */
    Recorded,
    /** Pointer array was full; the broadcast bit is now set. */
    BroadcastSet,
    /** Entry was already in broadcast mode. */
    AlreadyBroadcast,
    /**
     * No-broadcast entry was full: the caller must invalidate the
     * returned victim's copy before the new sharer can be recorded.
     */
    EvictionRequired,
};

/**
 * A Dir_i directory entry.
 *
 * Pointer order is FIFO: on Dir_i NB overflow the oldest pointer is
 * offered as the eviction victim, a deterministic stand-in for the
 * arbitrary choice the paper leaves open.
 *
 * Pointers are stored inline (no heap) for budgets up to 8 — every
 * Dir_i the paper evaluates — so a dense arena of entries is a single
 * flat allocation; larger budgets fall back to a heap array sized
 * once at construction.
 */
class LimitedEntry
{
  public:
    /**
     * @param num_pointers_arg i, the pointer budget (>= 1)
     * @param allow_broadcast_arg true for Dir_i B, false for Dir_i NB
     */
    LimitedEntry(unsigned num_pointers_arg, bool allow_broadcast_arg);

    bool dirty = false;

    /**
     * Record that @p cache now holds the block.
     *
     * For EvictionRequired the entry is NOT modified; the caller must
     * invalidate @p victim everywhere, call removeSharer(victim), and
     * retry (which is then guaranteed to record).
     *
     * @param cache the new sharer
     * @param victim out-parameter set on EvictionRequired
     */
    LimitedAddOutcome addSharer(CacheId cache, CacheId *victim = nullptr);

    /** Remove @p cache's pointer if present (no-op in broadcast mode). */
    void removeSharer(CacheId cache);

    /** Forget everything (after a full or directed invalidation). */
    void reset();

    /** True when only a broadcast can reach all copies. */
    bool broadcastRequired() const { return broadcast; }

    /** True if @p cache is known (by pointer) to hold the block. */
    bool pointsTo(CacheId cache) const;

    /** Exact pointer count (meaningless when broadcastRequired()). */
    unsigned pointerCount() const { return used; }

    /** Pointers in FIFO order (oldest first). */
    CacheIdSpan pointerList() const { return {data(), used}; }

    unsigned capacity() const { return numPointers; }
    bool broadcastAllowed() const { return allowBroadcast; }

  private:
    static constexpr unsigned inlineCap = 8;

    const CacheId *data() const
    {
        return numPointers <= inlineCap ? inlinePtrs.data()
                                        : heapPtrs.data();
    }
    CacheId *data()
    {
        return numPointers <= inlineCap ? inlinePtrs.data()
                                        : heapPtrs.data();
    }

    unsigned numPointers;
    bool allowBroadcast;
    bool broadcast = false;
    std::uint32_t used = 0;
    /** FIFO, oldest first; valid prefix of length @c used. */
    std::array<CacheId, inlineCap> inlinePtrs;
    /** Overflow storage when the budget exceeds inlineCap. */
    std::vector<CacheId> heapPtrs;
};

/**
 * One LimitedEntry per block in [0, block_count), materialized at
 * construction, so entry access is an array load.
 */
class LimitedDirectory
{
  public:
    /**
     * @param num_pointers_arg i (pointer budget per entry)
     * @param allow_broadcast_arg Dir_i B when true, Dir_i NB when false
     * @param block_count blocks the directory covers
     */
    LimitedDirectory(unsigned num_pointers_arg, bool allow_broadcast_arg,
                     std::uint64_t block_count);

    /** The entry of @p block; panics outside the directory. */
    LimitedEntry &entry(BlockNum block);

    /** The entry of @p block, or nullptr outside the directory. */
    const LimitedEntry *find(BlockNum block) const;

    unsigned pointerBudget() const { return numPointers; }
    bool broadcastAllowed() const { return allowBroadcast; }

  private:
    unsigned numPointers;
    bool allowBroadcast;
    std::vector<LimitedEntry> entries;
};

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_LIMITED_HH
