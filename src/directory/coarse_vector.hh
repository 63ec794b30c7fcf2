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

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "directory/sharer_set.hh"

namespace dirsim
{

/**
 * Superset code over cache indices, in one of two representations:
 *
 *  - Ternary (region_size == 0, the default): the Section 6 word of
 *    d = ceil(log2 n) digits described in the file comment.
 *
 *  - Region vector (region_size == K >= 1): one presence bit per
 *    K-cache region, the coarse-vector organization of the
 *    limited-pointer literature (e.g. SGI Origin). Region r covers
 *    caches [r*K, min((r+1)*K, n)); when K does not divide n the
 *    last region is narrower — regionWidth() is the clipped width,
 *    and every fan-out count uses it, never a blanket r*K.
 *
 * Digits are packed two bits each into words held inline (up to 128
 * digits — every configuration the scaling suite runs, including
 * region mode at N=1024 with K=12), falling back to a heap word array
 * sized once at construction. A dense arena of directory entries is
 * therefore a single flat allocation, and probing the code via
 * forEachMember()/supersetSize() never materializes a SharerSet.
 *
 * Invariants (property-tested):
 *  - decode() is always a superset of the exact sharer set encoded;
 *  - ternary: a code holding a single cache decodes exactly to that
 *    cache, and with k digits marked BOTH the superset has exactly
 *    2^k members (clipped to the domain when n is not a power of 2);
 *  - region: the superset is exactly the union of the flagged
 *    regions clipped to the domain, and supersetSize() equals the
 *    sum of their clipped widths.
 */
class CoarseVector
{
  public:
    /**
     * @param num_caches_arg domain size n (>= 1)
     * @param region_size_arg 0 for the ternary code, else the region
     *        granularity K (need not divide n)
     */
    explicit CoarseVector(unsigned num_caches_arg,
                          unsigned region_size_arg = 0);

    /** True when no cache has been encoded since the last clear. */
    bool empty() const { return !hasMember; }

    /** Fold cache @p cache into the code. */
    void add(CacheId cache);

    /** Reset to the empty code. */
    void clear();

    /** Region granularity K, or 0 for the ternary code. */
    unsigned regionSize() const { return regionGranularity; }

    /**
     * Ternary: number of digits d = ceil(log2 n) (1 when n == 1).
     * Region: number of regions ceil(n / K).
     */
    unsigned digits() const { return numDigits; }

    /** Number of digits currently BOTH (0 in region mode). */
    unsigned bothDigits() const;

    /** Region mode: number of regions ceil(n / K). */
    unsigned regionCount() const;

    /** Region mode: clipped width of region @p region —
     *  min(K, n - region*K), i.e. the last region is narrower when K
     *  does not divide n. */
    unsigned regionWidth(unsigned region) const;

    /** Region mode: number of regions currently flagged. */
    unsigned flaggedRegions() const;

    /**
     * Visit the denoted superset in ascending cache order without
     * materializing it — the alloc-free decode used by the
     * invalidation fan-out. Region mode walks the flagged regions'
     * clipped ranges; ternary mode matches each index against the
     * mask/value the non-BOTH digits pin down.
     */
    template <typename Fn>
    void forEachMember(Fn &&fn) const
    {
        if (!hasMember)
            return;
        if (regionGranularity != 0) {
            for (unsigned r = 0; r < numDigits; ++r) {
                if (digitAt(r) != Digit::One)
                    continue;
                const CacheId begin = r * regionGranularity;
                const CacheId end = begin + regionWidth(r);
                for (CacheId cache = begin; cache < end; ++cache)
                    fn(cache);
            }
            return;
        }
        unsigned mask = 0;
        unsigned val = 0;
        fixedBits(mask, val);
        for (CacheId cache = 0; cache < numCaches; ++cache) {
            if ((cache & mask) == val)
                fn(cache);
        }
    }

    /** The denoted superset of caches (clipped to the domain). */
    SharerSet decode() const;

    /**
     * Size of the denoted superset — the invalidation fan-out when
     * the code is probed. Region mode sums the flagged regions'
     * clipped widths (O(regions)); ternary mode counts the matching
     * indices. Neither allocates.
     */
    unsigned supersetSize() const;

    /** Render like "1 0 * 1" with '*' for BOTH (for diagnostics). */
    std::string toString() const;

    /** Hardware cost of the code in bits: 2 per ternary digit, or 1
     *  per region bit. */
    unsigned storageBits() const
    {
        return regionGranularity == 0 ? 2 * numDigits : numDigits;
    }

  private:
    enum class Digit : std::uint8_t { Zero, One, Both };

    /** Two bits per digit. */
    static constexpr unsigned digitsPerWord = 32;
    /** Inline code words: 128 digits before the heap fallback. */
    static constexpr unsigned inlineWords = 4;

    const std::uint64_t *codeWords() const
    {
        return heapCode.empty() ? inlineCode.data() : heapCode.data();
    }
    std::uint64_t *codeWords()
    {
        return heapCode.empty() ? inlineCode.data() : heapCode.data();
    }

    Digit digitAt(unsigned digit) const
    {
        const std::uint64_t word = codeWords()[digit / digitsPerWord];
        return static_cast<Digit>(
            (word >> (2 * (digit % digitsPerWord))) & 3);
    }

    void setDigit(unsigned digit, Digit value)
    {
        std::uint64_t &word = codeWords()[digit / digitsPerWord];
        const unsigned shift = 2 * (digit % digitsPerWord);
        word = (word & ~(std::uint64_t{3} << shift))
               | (static_cast<std::uint64_t>(value) << shift);
    }

    /** Ternary: the index mask/value the non-BOTH digits pin down. */
    void fixedBits(unsigned &mask, unsigned &val) const;

    unsigned numCaches;
    /** Region granularity K; 0 selects the ternary code. */
    unsigned regionGranularity;
    /** Ternary digits, or region presence bits (Zero/One). */
    unsigned numDigits;
    bool hasMember = false;
    /** Packed digits, 2 bits each (Zero = 0, so clear() zero-fills). */
    std::array<std::uint64_t, inlineWords> inlineCode{};
    /** Heap fallback when the code needs more than 128 digits. */
    std::vector<std::uint64_t> heapCode;
};

/**
 * A directory whose entries keep a dirty bit plus a CoarseVector, for
 * the Section 6 limited-broadcast evaluation. One entry per block in
 * [0, block_count), materialized at construction, so entry access is
 * an array load.
 */
class CoarseVectorDirectory
{
  public:
    struct Entry
    {
        explicit Entry(unsigned num_caches, unsigned region_size = 0)
            : sharers(num_caches, region_size)
        {}
        bool dirty = false;
        CoarseVector sharers;
    };

    /**
     * @param num_caches_arg caches in the domain
     * @param region_size_arg 0 for ternary entries, else the region
     *        granularity K (see CoarseVector)
     * @param block_count blocks the directory covers
     */
    CoarseVectorDirectory(unsigned num_caches_arg,
                          unsigned region_size_arg,
                          std::uint64_t block_count);

    /** The entry of @p block; panics outside the directory. */
    Entry &entry(BlockNum block);

    /** The entry of @p block, or nullptr outside the directory. */
    const Entry *find(BlockNum block) const;

    unsigned numCaches() const { return caches; }

    /** Region granularity of the entries (0 = ternary). */
    unsigned regionSize() const { return regionGranularity; }

  private:
    unsigned caches;
    unsigned regionGranularity;
    std::vector<Entry> entries;
};

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_COARSE_VECTOR_HH
