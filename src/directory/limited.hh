/**
 * @file
 * Limited-pointer directory entries: the Dir_i B and Dir_i NB points
 * of the paper's taxonomy. Each entry keeps at most @c i cache
 * pointers plus a dirty bit, and (for the B variants) a broadcast bit
 * that is set when the pointer array overflows.
 */

#ifndef DIRSIM_DIRECTORY_LIMITED_HH
#define DIRSIM_DIRECTORY_LIMITED_HH

#include <cstdint>
#include <type_traits>

#include "common/arena.hh"
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
 * One block's Dir_i entry: a handle over the block's slice of its
 * LimitedDirectory's arenas, valid while the directory lives.
 * LimitedEntry edits the entry; ConstLimitedEntry only reads it.
 *
 * Pointer order is FIFO: on Dir_i NB overflow the oldest pointer is
 * offered as the eviction victim, a deterministic stand-in for the
 * arbitrary choice the paper leaves open.
 */
template <bool Mutable>
class BasicLimitedEntry
{
    template <typename T>
    using Slot = std::conditional_t<Mutable, T, const T>;

  public:
    /** The entry of one block: its @p budget_arg pointer slots and
     *  its state word (LimitedDirectory::entry()). */
    BasicLimitedEntry(Slot<CacheId> *ptrs_arg,
                      Slot<std::uint32_t> *state_arg,
                      unsigned budget_arg, bool allow_broadcast_arg)
        : ptrs(ptrs_arg), state(state_arg), budget(budget_arg),
          allowBroadcast(allow_broadcast_arg)
    {}

    bool dirty() const { return *state & dirtyBit; }
    void setDirty(bool dirty_arg) requires Mutable
    {
        *state = dirty_arg ? *state | dirtyBit : *state & ~dirtyBit;
    }

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
    LimitedAddOutcome addSharer(CacheId cache,
                                CacheId *victim = nullptr) requires Mutable;

    /** Remove @p cache's pointer if present (no-op in broadcast mode). */
    void removeSharer(CacheId cache) requires Mutable;

    /** Forget everything (after a full or directed invalidation). */
    void reset() requires Mutable { *state = 0; }

    /** True when only a broadcast can reach all copies. */
    bool broadcastRequired() const { return *state & broadcastBit; }

    /** True if @p cache is known (by pointer) to hold the block. */
    bool pointsTo(CacheId cache) const;

    /** Exact pointer count (meaningless when broadcastRequired()). */
    unsigned pointerCount() const { return *state & countMask; }

    /** Pointers in FIFO order (oldest first). */
    CacheIdSpan pointerList() const { return {ptrs, pointerCount()}; }

    /** The largest pointer budget the state word can count. */
    static constexpr std::uint32_t countMask = (1u << 30) - 1;

  private:
    /** State word: pointer count (bits 0..29), dirty, broadcast. */
    static constexpr std::uint32_t dirtyBit = 1u << 30;
    static constexpr std::uint32_t broadcastBit = 1u << 31;

    /** FIFO, oldest first; valid prefix of length pointerCount(). */
    Slot<CacheId> *ptrs;
    Slot<std::uint32_t> *state;
    unsigned budget;
    bool allowBroadcast;
};

using LimitedEntry = BasicLimitedEntry<true>;
using ConstLimitedEntry = BasicLimitedEntry<false>;

/**
 * The Dir_i entries of the blocks [0, block_count) in two calloc'd
 * arenas: block_count × i pointer slots and one state word per block
 * (pointer count, dirty bit, broadcast bit). All-zero bytes are an
 * empty entry, so construction zero-fills nothing, and the budget and
 * the broadcast flag are kept once, here, rather than per entry.
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
    LimitedEntry entry(BlockNum block)
    {
        checkBlock(block);
        return {ptrs.get() + block * numPointers, states.get() + block,
                numPointers, allowBroadcast};
    }
    ConstLimitedEntry entry(BlockNum block) const
    {
        checkBlock(block);
        return {ptrs.get() + block * numPointers, states.get() + block,
                numPointers, allowBroadcast};
    }

    unsigned pointerBudget() const { return numPointers; }
    bool broadcastAllowed() const { return allowBroadcast; }

  private:
    void checkBlock(BlockNum block) const
    {
        if (block >= blocks) [[unlikely]]
            rangePanic(block);
    }
    [[noreturn]] void rangePanic(BlockNum block) const;

    unsigned numPointers;
    bool allowBroadcast;
    std::uint64_t blocks;
    /** Block b's pointers: [b * numPointers, (b + 1) * numPointers). */
    CallocArena<CacheId> ptrs;
    /** Block b's state word. */
    CallocArena<std::uint32_t> states;
};

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_LIMITED_HH
