/**
 * @file
 * Tang's directory organization: the central directory holds a
 * duplicate of every cache's tag store (tag + dirty bit per cached
 * block). Finding the holders of a block means searching each
 * duplicate directory; the information content is the same as the
 * Censier & Feautrier full map (tested for equivalence), only the
 * organization and lookup cost differ.
 */

#ifndef DIRSIM_DIRECTORY_TANG_HH
#define DIRSIM_DIRECTORY_TANG_HH

#include <cstdint>
#include <vector>

#include "directory/sharer_set.hh"

namespace dirsim
{

/**
 * Duplicate-tag central directory.
 *
 * Each duplicate tag store is a flat presence/dirty array over the
 * blocks [0, block_count), so a search touches one byte per cache.
 */
class TangDirectory
{
  public:
    /** Result of searching all duplicate tag stores for a block. */
    struct SearchResult
    {
        SharerSet holders;
        /** Cache holding the block dirty, or invalidCacheId. */
        CacheId dirtyOwner = invalidCacheId;

        bool dirty() const { return dirtyOwner != invalidCacheId; }
    };

    /**
     * @param num_caches_arg number of caches whose tags to mirror
     * @param block_count blocks each duplicate tag store covers
     */
    TangDirectory(unsigned num_caches_arg, std::uint64_t block_count);

    /** Mirror cache @p cache filling @p block (clean). */
    void recordFill(CacheId cache, BlockNum block);

    /** Mirror cache @p cache's copy of @p block turning dirty. */
    void recordDirty(CacheId cache, BlockNum block);

    /** Mirror cache @p cache's copy of @p block turning clean. */
    void recordClean(CacheId cache, BlockNum block);

    /** Mirror invalidation/eviction of @p block from cache @p cache. */
    void recordInvalidate(CacheId cache, BlockNum block);

    /** Search every duplicate directory for @p block. */
    SearchResult search(BlockNum block) const;

    /**
     * Number of duplicate directories a search touches (all of them;
     * this is the organization's lookup-cost drawback vs. the
     * directly-indexed full map).
     */
    unsigned searchCost() const
    {
        return static_cast<unsigned>(dupTags.size());
    }

    unsigned numCaches() const
    {
        return static_cast<unsigned>(dupTags.size());
    }

  private:
    /** Tag-slot encoding: absent / present-clean / present-dirty. */
    enum : std::uint8_t { tagAbsent = 0, tagClean = 1, tagDirty = 2 };

    /** Per-cache duplicate tags: one slot per block. */
    std::vector<std::vector<std::uint8_t>> dupTags;
};

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_TANG_HH
