/**
 * @file
 * The Section 6 "limited broadcast" superset code: a word of
 * d = ceil(log2 n) digits, each 0, 1, or BOTH. A digit fixed to 0/1
 * constrains that bit of the cache index; BOTH leaves it free, so the
 * word always denotes a superset of the caches holding the block and
 * costs 2*log2(n) bits.
 */

#ifndef DIRSIM_DIRECTORY_COARSE_VECTOR_HH
#define DIRSIM_DIRECTORY_COARSE_VECTOR_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "common/arena.hh"
#include "directory/sharer_set.hh"

namespace dirsim
{

/**
 * A directory whose entries keep a dirty bit plus a superset code
 * over cache indices, for the Section 6 limited-broadcast
 * evaluation. The code takes one of two forms, the same for every
 * entry of a directory:
 *
 *  - Ternary (region_size == 0): the Section 6 word of
 *    d = ceil(log2 n) digits described in the file comment.
 *
 *  - Region vector (region_size == K >= 1): one presence bit per
 *    K-cache region, the coarse-vector organization of the
 *    limited-pointer literature (e.g. SGI Origin). Region r covers
 *    caches [r*K, min((r+1)*K, n)); when K does not divide n the
 *    last region is narrower — regionWidth() is the clipped width,
 *    and every fan-out count uses it, never a blanket r*K.
 *
 * The entries of the blocks [0, block_count) live in two calloc'd
 * arenas: the code words of every block and one flags byte per block
 * (dirty, has-member). A ternary code is one word: digit i is
 * fixed when bit 32+i is set, to the value of bit i, and BOTH
 * otherwise, so 0, 1 and BOTH are the bit pairs (1,0), (1,1) and
 * (0,0). A region code keeps region r's flag in bit r%64 of word
 * r/64. All-zero bytes are an empty entry, so construction
 * zero-fills nothing, and the geometry is kept once, here.
 *
 * Invariants (property-tested against brute-force enumeration):
 *  - decode() is always a superset of the exact sharer set encoded;
 *  - ternary: a code holding a single cache decodes exactly to that
 *    cache, and with k digits marked BOTH the superset has exactly
 *    2^k members (clipped to the domain when n is not a power of 2);
 *  - region: the superset is exactly the union of the flagged
 *    regions clipped to the domain, and supersetSize() equals the
 *    sum of their clipped widths.
 */
class CoarseVectorDirectory
{
  public:
    /**
     * One block's entry: a handle over the block's slice of the
     * directory's arenas, valid while the directory lives. Entry
     * edits the entry; ConstEntry only reads it.
     */
    template <bool Mutable>
    class BasicEntry
    {
        template <typename T>
        using Slot = std::conditional_t<Mutable, T, const T>;

      public:
        BasicEntry(const CoarseVectorDirectory &dir_arg,
                   Slot<std::uint64_t> *code_arg,
                   Slot<std::uint8_t> *flags_arg)
            : dir(&dir_arg), code(code_arg), flags(flags_arg)
        {}

        bool dirty() const { return *flags & dirtyFlag; }
        void setDirty(bool dirty_arg) requires Mutable
        {
            *flags = static_cast<std::uint8_t>(
                dirty_arg ? *flags | dirtyFlag : *flags & ~dirtyFlag);
        }

        /** True when no cache has been encoded since the last clear. */
        bool empty() const { return !(*flags & memberFlag); }

        /** Fold cache @p cache into the code. */
        void add(CacheId cache) requires Mutable;

        /** Reset the code to empty; the dirty bit is kept. */
        void clear() requires Mutable;

        /** True iff @p cache is in the denoted superset (false for an
         *  empty code or a cache outside the domain). */
        bool denotes(CacheId cache) const;

        /** Number of digits currently BOTH (0 in region mode). */
        unsigned bothDigits() const;

        /** Region mode: number of regions currently flagged. */
        unsigned flaggedRegions() const;

        /** The denoted superset of caches (clipped to the domain),
         *  for invariant checks: O(n). */
        SharerSet decode() const;

        /**
         * Size of the denoted superset, in O(digits) without visiting
         * it: region mode sums the flagged regions' clipped widths,
         * ternary mode counts the indices below n that match the
         * fixed digits in one pass over n's bits.
         */
        unsigned supersetSize() const;

        /** Render like "1 0 * 1" with '*' for BOTH, most-significant
         *  digit first; region codes like "1.0.1", region 0 first. */
        std::string toString() const;

      private:
        static constexpr std::uint8_t dirtyFlag = 1;
        static constexpr std::uint8_t memberFlag = 2;

        std::uint32_t ternaryValue() const
        {
            return static_cast<std::uint32_t>(code[0]);
        }
        std::uint32_t ternaryMask() const
        {
            return static_cast<std::uint32_t>(code[0] >> 32);
        }

        const CoarseVectorDirectory *dir;
        Slot<std::uint64_t> *code;
        Slot<std::uint8_t> *flags;
    };

    using Entry = BasicEntry<true>;
    using ConstEntry = BasicEntry<false>;

    /**
     * @param num_caches_arg caches in the domain, 1..maxCacheDomain
     * @param region_size_arg 0 for ternary entries, else the region
     *        granularity K (need not divide n)
     * @param block_count blocks the directory covers
     */
    CoarseVectorDirectory(unsigned num_caches_arg,
                          unsigned region_size_arg,
                          std::uint64_t block_count);

    /** The entry of @p block; panics outside the directory. */
    Entry entry(BlockNum block)
    {
        checkBlock(block);
        return {*this, words.get() + block * codeWordCount,
                flags.get() + block};
    }
    ConstEntry entry(BlockNum block) const
    {
        checkBlock(block);
        return {*this, words.get() + block * codeWordCount,
                flags.get() + block};
    }

    unsigned numCaches() const { return caches; }

    /** Region granularity K, or 0 for the ternary code. */
    unsigned regionSize() const { return regionGranularity; }

    /**
     * Ternary: number of digits d = ceil(log2 n) (1 when n == 1).
     * Region: number of regions ceil(n / K).
     */
    unsigned digits() const { return numDigits; }

    /** Region mode: number of regions ceil(n / K). */
    unsigned regionCount() const;

    /** Region mode: clipped width of region @p region —
     *  min(K, n - region*K), i.e. the last region is narrower when K
     *  does not divide n. */
    unsigned regionWidth(unsigned region) const;

    /** Hardware cost of a code in bits: 2 per ternary digit, or 1
     *  per region bit. */
    unsigned storageBits() const
    {
        return regionGranularity == 0 ? 2 * numDigits : numDigits;
    }

  private:
    void checkBlock(BlockNum block) const
    {
        if (block >= blocks) [[unlikely]]
            rangePanic(block);
    }
    [[noreturn]] void rangePanic(BlockNum block) const;

    /** Ternary: the bits the digits cover. */
    std::uint32_t digitMask() const
    {
        return static_cast<std::uint32_t>((std::uint64_t{1} << numDigits)
                                          - 1);
    }

    unsigned caches;
    /** Region granularity K; 0 selects the ternary code. */
    unsigned regionGranularity;
    /** Ternary digits, or regions. */
    unsigned numDigits;
    unsigned codeWordCount;
    std::uint64_t blocks;
    /** Block b's code: [b * codeWordCount, (b + 1) * codeWordCount). */
    CallocArena<std::uint64_t> words;
    /** Block b's dirty and has-member flags. */
    CallocArena<std::uint8_t> flags;
};

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_COARSE_VECTOR_HH
