/**
 * @file
 * Limited-pointer directory entries for the paper's Dir_i NB schemes
 * (Dir1NB is i = 1). Each entry keeps at most @c i cache pointers in
 * arrival order, which is what Dir_i NB decides with: an (i+1)-th
 * sharer displaces the oldest. The dirty owner lives in the engine
 * (protocols/protocol.hh) and Dir_i B keeps only a broadcast flag per
 * block (protocols/dir_i_b.hh), so an entry holds pointers and nothing
 * else.
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
    /**
     * The entry was full: the caller must invalidate the returned
     * victim's copy before the new sharer can be recorded.
     */
    EvictionRequired,
};

/**
 * One block's Dir_i entry: a handle over the block's slice of its
 * LimitedDirectory's arenas, valid while the directory lives.
 * LimitedEntry edits the entry; ConstLimitedEntry only reads it.
 *
 * Pointer order is FIFO: on overflow the oldest pointer is offered as
 * the eviction victim, a deterministic stand-in for the arbitrary
 * choice the paper leaves open.
 */
template <bool Mutable>
class BasicLimitedEntry
{
    template <typename T>
    using Slot = std::conditional_t<Mutable, T, const T>;

  public:
    /** The entry of one block: its @p budget_arg pointer slots and
     *  its pointer count (LimitedDirectory::entry()). */
    BasicLimitedEntry(Slot<CacheId> *ptrs_arg,
                      Slot<std::uint32_t> *count_arg, unsigned budget_arg)
        : ptrs(ptrs_arg), count(count_arg), budget(budget_arg)
    {}

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

    /** Remove @p cache's pointer if present. */
    void removeSharer(CacheId cache) requires Mutable;

    /** Forget everything (after a full or directed invalidation). */
    void reset() requires Mutable { *count = 0; }

    /** True if @p cache is known (by pointer) to hold the block. */
    bool pointsTo(CacheId cache) const;

    /** Exact pointer count. */
    unsigned pointerCount() const { return *count; }

    /** Pointers in FIFO order (oldest first). */
    CacheIdSpan pointerList() const { return {ptrs, pointerCount()}; }

    /** The largest pointer budget a directory accepts. */
    static constexpr std::uint32_t maxPointers = (1u << 30) - 1;

  private:
    /** FIFO, oldest first; valid prefix of length pointerCount(). */
    Slot<CacheId> *ptrs;
    Slot<std::uint32_t> *count;
    unsigned budget;
};

using LimitedEntry = BasicLimitedEntry<true>;
using ConstLimitedEntry = BasicLimitedEntry<false>;

/**
 * The Dir_i entries of the blocks [0, block_count) in two calloc'd
 * arenas: block_count × i pointer slots and one 32-bit pointer count
 * per block. All-zero bytes are an empty entry, so construction
 * zero-fills nothing, and the budget is kept once, here, rather than
 * per entry.
 */
class LimitedDirectory
{
  public:
    /**
     * @param num_pointers_arg i (pointer budget per entry)
     * @param block_count blocks the directory covers
     */
    LimitedDirectory(unsigned num_pointers_arg, std::uint64_t block_count);

    /** The entry of @p block; panics outside the directory. */
    LimitedEntry entry(BlockNum block)
    {
        checkBlock(block);
        return {ptrs.get() + block * numPointers, counts.get() + block,
                numPointers};
    }
    ConstLimitedEntry entry(BlockNum block) const
    {
        checkBlock(block);
        return {ptrs.get() + block * numPointers, counts.get() + block,
                numPointers};
    }

    unsigned pointerBudget() const { return numPointers; }

  private:
    void checkBlock(BlockNum block) const
    {
        if (block >= blocks) [[unlikely]]
            rangePanic(block);
    }
    [[noreturn]] void rangePanic(BlockNum block) const;

    unsigned numPointers;
    std::uint64_t blocks;
    /** Block b's pointers: [b * numPointers, (b + 1) * numPointers). */
    CallocArena<CacheId> ptrs;
    /** Block b's pointer count. */
    CallocArena<std::uint32_t> counts;
};

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_LIMITED_HH
