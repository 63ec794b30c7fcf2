/**
 * @file
 * Censier & Feautrier full-map directory: one present bit per cache
 * plus a dirty bit per main-memory block (Dir_n in the paper's
 * taxonomy). Directly indexable by the block address.
 */

#ifndef DIRSIM_DIRECTORY_FULL_MAP_HH
#define DIRSIM_DIRECTORY_FULL_MAP_HH

#include <cstdint>
#include <vector>

#include "directory/sharer_set.hh"

namespace dirsim
{

/**
 * Full-map directory over the blocks [0, block_count).
 *
 * The present bits of every block live in one SharerStore arena
 * (hybrid inline/spill sharer sets, a single allocation) beside a flat
 * dirty-bit array, both sized at construction (the storage
 * calculators in directory/storage.hh account for the real per-block
 * hardware cost).
 */
class FullMapDirectory
{
  public:
    /**
     * @param num_caches_arg number of caches in the system
     * @param block_count blocks the directory covers
     */
    FullMapDirectory(unsigned num_caches_arg, std::uint64_t block_count);

    /** Record @p cache's present bit for @p block. */
    void addSharer(BlockNum block, CacheId cache);

    /** Clear @p cache's present bit for @p block. */
    void removeSharer(BlockNum block, CacheId cache);

    /** True iff @p cache's present bit is set for @p block. */
    bool isSharer(BlockNum block, CacheId cache) const;

    /** Number of present bits set for @p block. */
    unsigned sharerCount(BlockNum block) const;

    /** The dirty bit of @p block (clear until set). */
    bool dirty(BlockNum block) const;

    void setDirty(BlockNum block, bool dirty_arg);

    /** Append @p block's sharers to @p out in ascending order. */
    void appendSharers(BlockNum block, CacheIdList &out) const;

    /** @p block's present bits materialized (invariant checks). */
    SharerSet sharerSnapshot(BlockNum block) const;

    unsigned numCaches() const { return caches; }

  private:
    unsigned caches;
    /** Present bits: the hybrid inline/spill arena. */
    SharerStore sharers;
    /** Dirty bits, indexed by block. */
    std::vector<std::uint8_t> dirtyBits;
};

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_FULL_MAP_HH
